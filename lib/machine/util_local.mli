(** Internal sequence helpers for deterministic block expansion. *)

val interleave3 : int -> int -> int -> [ `A | `B | `C ] array
(** [interleave3 a b c] emits [a] [`A]s, [b] [`B]s, [c] [`C]s with the rarer
    elements spread evenly through the commoner ones. *)

val spread : 'a array -> 'a array -> 'a array
(** [spread base extras] inserts [extras] at evenly spaced positions in
    [base], preserving both relative orders.  May return [base] or
    [extras] itself when the other is empty. *)
