(** Instruction / memory-reference traces.

    A trace is the unit of analysis in the paper: protocol processing is
    traced, and the trace is replayed through the memory-hierarchy and CPU
    simulators (§4.4). *)

type access =
  | Read of int
  | Write of int

type event = {
  pc : int;  (** byte address of the instruction *)
  cls : Instr.cls;
  access : access option;  (** data reference made by this instruction *)
}

type t
(** Traces are stored struct-of-arrays: flat int columns for pc, class
    code, access kind, data address and function id.  Appending via
    {!add_packed} and scanning via the [_at] accessors allocate nothing,
    which keeps the simulator's per-instruction hot path allocation-free.
    The columns start empty and grow by doubling from 1,024 events, unless
    {!reserve} has sized them already. *)

val create : unit -> t

val reserve : t -> int -> unit
(** [reserve t n] makes room for [n] more events: the next [n] calls to
    {!add_packed} allocate nothing.  The columns grow to exactly
    [length t + n] when they are shorter; a caller that knows how many
    events it will append (the engine sizes a roundtrip's trace from the
    roundtrip before it) skips the doublings and their copies.  Appending
    past the reservation falls back to doubling, so a wrong count costs
    allocation, never events. *)

val length : t -> int

val add : t -> pc:int -> cls:Instr.cls -> ?access:access -> unit -> unit
(** Append one untagged event (function id [-1]). *)

(** {2 Function attribution}

    Each event optionally carries the interned id of its originating
    function, so analysis passes can roll cycles and cache misses up
    per-function without a separate pc→function lookup per event.  Ids are
    per-trace; [-1] means "untagged". *)

val intern : t -> string -> int
(** Find-or-assign the id for a function name. *)

val n_funcs : t -> int

val func_name : t -> int -> string
(** Inverse of {!intern}. *)

val fid_at : t -> int -> int
(** Function id of event [i]; [-1] when untagged. *)

(** {2 Packed (allocation-free) interface} *)

val kind_none : int

val kind_read : int

val kind_write : int

val add_packed :
  t -> pc:int -> cls:Instr.cls -> kind:int -> addr:int -> fid:int -> unit
(** [add_packed t ~pc ~cls ~kind ~addr ~fid] appends one event without
    boxing.  [kind] is one of {!kind_none}, {!kind_read}, {!kind_write};
    [addr] is ignored when [kind = kind_none].  [fid] is an id from
    {!intern} (or [-1]). *)

val pc_at : t -> int -> int

val cls_at : t -> int -> Instr.cls

val kind_at : t -> int -> int

val addr_at : t -> int -> int

(** {2 Event (boxed) interface — analysis paths} *)

val get : t -> int -> event

val iter : (event -> unit) -> t -> unit

val map_pcs : (int -> int) -> t -> t
(** A copy of the trace with every instruction address rewritten through
    [f] — classes, data references, ordering and function tags unchanged.
    With {!Protolat_layout.Image.pc_map} as [f], this retargets a trace
    captured against one code image to a candidate placement of the same
    units, so a layout sweep replays one captured trace per layout instead
    of re-running the whole protocol simulation. *)

val class_counts : t -> (Instr.cls * int) list
(** Histogram of instruction classes, in [Instr.all] order. *)

val taken_branch_fraction : t -> float

val distinct_blocks : t -> block_bytes:int -> int
(** Number of distinct i-stream blocks touched (static footprint of the
    trace at cache-block granularity). *)

val touched_instr_offsets : t -> (int, unit) Hashtbl.t
(** Set of distinct instruction addresses fetched. *)

val to_string : t -> string
(** One event per line: [pc class [R|W addr] [@func]], the trailing
    [@func] naming the originating function when the event is tagged —
    the paper made its instruction traces available for download; so do
    we ([protolat trace --raw]). *)
