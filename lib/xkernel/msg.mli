(** x-kernel message tool.

    Messages carry real bytes.  Headers are pushed in front of the payload
    into preallocated headroom (no copy in the common case) and popped on
    input.  Messages are reference counted; [refresh] implements the §2.2.2
    optimization: when protocol processing has finished and the buffer holds
    the only reference, the free()/malloc() pair is short-circuited and the
    buffer is reused in place. *)

type t

val alloc : Simmem.t -> ?headroom:int -> int -> t
(** [alloc sim ~headroom payload_len] makes a zero-filled message of
    [payload_len] bytes with [headroom] bytes (default 128) of header
    space, at a fresh simulated address. *)

val reserve : Simmem.t -> ?headroom:int -> int -> int
(** [reserve sim ~headroom payload_len] takes the simulated address
    {!alloc} would give a message of that shape, without building it. *)

val alloc_at : addr:int -> ?headroom:int -> int -> t
(** Build the message {!alloc} would, at an address taken earlier with
    {!reserve} for the same shape. *)

val of_string : Simmem.t -> ?headroom:int -> string -> t

val len : t -> int

val sim_addr : t -> int
(** Simulated address of the first byte currently in the message. *)

val push : t -> bytes -> unit
(** Prepend a header.  @raise Failure if the headroom is exhausted (the
    modeled stacks size headroom for their deepest header stack). *)

val pop : t -> int -> bytes
(** Remove and return the first [n] bytes.
    @raise Invalid_argument if the message is shorter than [n]. *)

val peek : t -> int -> int -> bytes
(** [peek t off n] reads without consuming. *)

val blit_into : t -> bytes -> int -> unit
(** Copy the whole message into a buffer at an offset. *)

val contents : t -> bytes

val set_payload : t -> bytes -> unit
(** Replace the message contents with a fresh payload (drops any pushed
    headers; reuses the buffer). *)

val retain : t -> unit

val refs : t -> int

val release : t -> [ `Freed | `Shared ]
(** Drop one reference. *)

type refresh_outcome =
  | Reused  (** short-circuit hit: no free/malloc *)
  | Reallocated  (** had other references: genuinely freed + reallocated *)

val refresh : ?shortcircuit:bool -> Simmem.t -> t -> refresh_outcome
(** Reset the message for reuse as a receive buffer.  With [shortcircuit]
    (default true) and a sole reference, the buffer is reused in place. *)
