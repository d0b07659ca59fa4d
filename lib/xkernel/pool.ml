(* The buffers' simulated addresses are all reserved at [create], in order,
   so every address stays where eager allocation put it; a buffer's bytes
   are built on the [get] that first needs it.  The eager pool's free list
   is always [free] followed by the unbuilt buffers in order, so [get] and
   [put] hand out the same buffers in the same order. *)
type t = {
  sim : Simmem.t;
  shortcircuit : bool;
  size : int;
  reserved : int array;  (* each buffer's simulated address *)
  mutable built : int;  (* buffers built so far: the first [built] *)
  mutable free : Msg.t list;
  mutable reused : int;
  mutable reallocated : int;
}

let create sim ?(shortcircuit = true) ~buffers ~size () =
  let reserved = Array.init buffers (fun _ -> Msg.reserve sim size) in
  { sim; shortcircuit; size; reserved; built = 0; free = []; reused = 0;
    reallocated = 0 }

let available t = List.length t.free + Array.length t.reserved - t.built

let get t =
  match t.free with
  | m :: rest ->
    t.free <- rest;
    m
  | [] ->
    if t.built = Array.length t.reserved then failwith "Pool.get: exhausted";
    let m = Msg.alloc_at ~addr:t.reserved.(t.built) t.size in
    t.built <- t.built + 1;
    m

let put t m =
  let outcome = Msg.refresh ~shortcircuit:t.shortcircuit t.sim m in
  (match outcome with
  | Msg.Reused -> t.reused <- t.reused + 1
  | Msg.Reallocated -> t.reallocated <- t.reallocated + 1);
  t.free <- m :: t.free;
  outcome

let reused t = t.reused

let reallocated t = t.reallocated
