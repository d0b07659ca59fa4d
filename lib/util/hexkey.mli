(** Zero-padded lowercase hex for demultiplexing keys: exactly the text of
    [Printf.sprintf "%0*x" width v], built without the format interpreter.
    Like [%x], a negative [v] prints as its unsigned 63-bit value, and a
    value wider than [width] digits prints in full. *)

val digits : width:int -> int -> int
(** Length of the rendering of [v] padded to [width] digits. *)

val blit : bytes -> int -> digits:int -> int -> int
(** [blit b pos ~digits:(digits ~width v) v] writes the rendering at [pos]
    in [b] and returns the position just past it.
    @raise Invalid_argument if [b] has no room for it. *)

val to_string : width:int -> int -> string
