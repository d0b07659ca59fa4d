(** Chrome/Perfetto trace-event JSON export.

    Renders one or more {!Tracer} buffers as a single JSON document in the
    trace-event format ([{"traceEvents":[...]}]) that loads directly in
    {{:https://ui.perfetto.dev}ui.perfetto.dev} or [chrome://tracing].
    Each tracer becomes one Perfetto {e process}; its thread ids are
    labeled via metadata events.  All numbers are printed with fixed
    formats, so the output is byte-identical for identical inputs. *)

type process = {
  pid : int;
  pname : string;  (** process label, e.g. ["tcpip/ALL seed=42"] *)
  threads : (int * string) list;  (** thread id → label, e.g. client/server *)
  tracer : Tracer.t;
}

type span_track = {
  span_pid : int;
  span_pname : string;
  msgs : Span.message array;
}
(** A {!Span} ledger rendered as one process: per-host threads of complete
    ("X") slices, one per stage segment, plus flow events ([ph:"s"] on the
    sending host's slice, [ph:"f"] on the receiving host's slice) tying each
    wire hop's send span to its receive span across hosts. *)

val to_string : ?spans:span_track list -> process list -> string
