type placement = (Image.unit_spec * int) list

let align_up addr quantum = (addr + quantum - 1) / quantum * quantum

let dense ~base units =
  let cursor = ref base in
  List.map
    (fun u ->
      let addr = align_up !cursor 32 in
      cursor := addr + Image.size_bytes u;
      (u, addr))
    units

let link_order ~base units = dense ~base units

let first_occurrence_rank order =
  let tbl = Hashtbl.create 64 in
  List.iteri
    (fun i name -> if not (Hashtbl.mem tbl name) then Hashtbl.replace tbl name i)
    order;
  fun name ->
    match Hashtbl.find_opt tbl name with Some i -> i | None -> max_int

let invocation_order ~base ~order units =
  let rank = first_occurrence_rank order in
  let keyed = List.mapi (fun i u -> (rank (Image.unit_name u), i, u)) units in
  let sorted =
    List.sort (fun (r1, i1, _) (r2, i2, _) -> compare (r1, i1) (r2, i2)) keyed
  in
  dense ~base (List.map (fun (_, _, u) -> u) sorted)

let is_path u =
  match Image.unit_funcs u with
  | f :: _ -> f.Func.cat = Func.Path
  | [] -> true

let bipartite ~base ~icache_bytes ~order units =
  (* Partition the i-cache: path functions use sets [0, window) of every
     i-cache-sized period, library functions are packed into the reserved
     tail [window, icache) — so the once-per-invocation path sweep never
     evicts the repeatedly used library code.  Units too large for a window
     are placed across window boundaries (unavoidable). *)
  let rank = first_occurrence_rank order in
  let part p =
    List.filter (fun u -> is_path u = p) units
    |> List.mapi (fun i u -> (rank (Image.unit_name u), i, u))
    |> List.sort (fun (r1, i1, _) (r2, i2, _) -> compare (r1, i1) (r2, i2))
    |> List.map (fun (_, _, u) -> u)
  in
  let path = part true and lib = part false in
  let lib_bytes =
    List.fold_left (fun a u -> a + align_up (Image.size_bytes u) 32) 0 lib
  in
  (* reserve at most half the cache for the library partition *)
  let reserve = min lib_bytes (icache_bytes / 2) in
  let window = icache_bytes - align_up reserve 32 in
  let base = align_up base icache_bytes in
  (* path partition *)
  let cursor = ref base in
  let place_path u =
    let size = Image.size_bytes u in
    let off = !cursor mod icache_bytes in
    if size <= window && off + size > window then
      cursor := align_up !cursor icache_bytes;
    let addr = !cursor in
    cursor := align_up (addr + size) 32;
    (u, addr)
  in
  let placed_path = List.map place_path path in
  (* library partition: packed into the reserved windows after the path *)
  let lcursor = ref (align_up !cursor icache_bytes + window) in
  let place_lib u =
    let size = Image.size_bytes u in
    let off = !lcursor mod icache_bytes in
    if off + size > icache_bytes && size <= icache_bytes - window then
      lcursor := align_up !lcursor icache_bytes + window;
    let addr = !lcursor in
    lcursor := align_up (addr + size) 32;
    (u, addr)
  in
  placed_path @ List.map place_lib lib

let pessimal ~base ~icache_bytes ~bcache_bytes ?(bconflict_every = 2) units =
  (* Every unit starts at the same i-cache set (whole i-cache multiples), so
     all units collide maximally in the i-cache.  Every Nth unit is
     additionally relocated by whole multiples of the b-cache size onto the
     b-cache sets of its successor, so those pairs thrash the b-cache
     too. *)
  let cursor = ref (align_up base icache_bytes) in
  List.mapi
    (fun k u ->
      let addr = !cursor in
      let next = align_up (addr + Image.size_bytes u + 1) icache_bytes in
      cursor := next;
      if bconflict_every > 0 && k mod bconflict_every = 0 then
        (next mod bcache_bytes) + (((k / bconflict_every) + 1) * bcache_bytes)
      else addr)
    units
  |> List.map2 (fun u addr -> (u, addr)) units

(* --- micro-positioning --------------------------------------------------- *)

(* Interleave matrix over name ids: [w.(a).(b)] counts every occurrence of
   [b] after the first occurrence of [a] in the reference sequence (each
   such reference can evict [a] if the two share cache sets).  It is 0 on
   the diagonal and when [a] never occurs.  One pass: snapshot the running
   per-name counts at each name's first occurrence, so [w.(a).(b)] is
   [b]'s total count minus its count before [a] first appeared. *)
let interleave_matrix ids ref_seq =
  let n = Hashtbl.length ids in
  let count = Array.make n 0 in
  let before_first = Array.make n None in
  List.iter
    (fun x ->
      match Hashtbl.find_opt ids x with
      | Some i ->
        if Option.is_none before_first.(i) then
          before_first.(i) <- Some (Array.copy count);
        count.(i) <- count.(i) + 1
      | None -> ())
    ref_seq;
  Array.init n (fun a ->
      match before_first.(a) with
      | None -> Array.make n 0
      | Some pre ->
        Array.init n (fun b -> if b = a then 0 else count.(b) - pre.(b)))

let micro_position ~base ~icache_bytes ~block_bytes ~ref_seq units =
  let nsets = icache_bytes / block_bytes in
  let rank = first_occurrence_rank ref_seq in
  let keyed = List.mapi (fun i u -> (rank (Image.unit_name u), i, u)) units in
  let ordered =
    List.sort (fun (r1, i1, _) (r2, i2, _) -> compare (r1, i1) (r2, i2)) keyed
    |> List.map (fun (_, _, u) -> u)
  in
  let ids = Hashtbl.create 64 in
  List.iter
    (fun u ->
      let name = Image.unit_name u in
      if not (Hashtbl.mem ids name) then Hashtbl.add ids name (Hashtbl.length ids))
    ordered;
  let w = interleave_matrix ids ref_seq in
  let placed = ref [] in
  (* (name id, offset_blocks, span) *)
  let set_cost = Array.make nsets 0 in
  (* prefix sums of [set_cost] over two laps, so every circular interval
     is one subtraction *)
  let prefix = Array.make ((2 * nsets) + 1) 0 in
  let cursor = ref base in
  List.map
    (fun u ->
      let id = Hashtbl.find ids (Image.unit_name u) in
      let size = Image.size_bytes u in
      (* the unit will occupy the circular set interval [o, o + span) mod
         nsets for its chosen offset [o] *)
      let span = min ((size + block_bytes - 1) / block_bytes) nsets in
      (* predicted conflicts of this unit on each set: the interleave
         weights of the placed units occupying it *)
      Array.fill set_cost 0 nsets 0;
      List.iter
        (fun (q, qoff, qspan) ->
          let wq = w.(id).(q) + w.(q).(id) in
          if wq <> 0 then
            for i = 0 to qspan - 1 do
              let s = (qoff + i) mod nsets in
              set_cost.(s) <- set_cost.(s) + wq
            done)
        !placed;
      for i = 0 to (2 * nsets) - 1 do
        prefix.(i + 1) <- prefix.(i) + set_cost.(i mod nsets)
      done;
      let cost o = prefix.(o + span) - prefix.(o) in
      (* candidate offsets at block granularity; prefer the dense position
         (cursor's own offset) on ties to limit gaps *)
      let dense_off = !cursor / block_bytes mod nsets in
      let best = ref dense_off and best_cost = ref (cost dense_off) in
      for o = 0 to nsets - 1 do
        let c = cost o in
        if c < !best_cost then begin
          best := o;
          best_cost := c
        end
      done;
      let offset_bytes = !best * block_bytes in
      let addr =
        let candidate = (!cursor / icache_bytes * icache_bytes) + offset_bytes in
        if candidate >= !cursor then candidate else candidate + icache_bytes
      in
      placed := (id, !best, span) :: !placed;
      cursor := addr + size;
      (u, addr))
    ordered

(* Genome decoder for layout search: units arrive in the order the genome
   dictates, each tagged with a desired i-cache set offset in blocks
   (or -1 for "dense, right after the previous unit").  Offsets use the
   micro-positioning congruence idiom: the unit goes at the first address
   at or past the cursor whose i-cache set matches, which costs at most
   one cache period of gap.  Every (order, offsets) pair decodes to a
   valid non-overlapping placement, so search moves can mutate freely. *)
let at_offsets ~base ~icache_bytes ~block_bytes units =
  let nsets = icache_bytes / block_bytes in
  let cursor = ref base in
  List.map
    (fun (u, off) ->
      let addr =
        if off < 0 then align_up !cursor block_bytes
        else begin
          (* off = set + nsets * extra whole periods of deliberate gap;
             the extra periods let strategies whose jumps exceed one
             period (bipartite's library partition) round-trip exactly *)
          let offset_bytes = off mod nsets * block_bytes in
          let candidate =
            (!cursor / icache_bytes * icache_bytes) + offset_bytes
          in
          let minimal =
            if candidate >= !cursor then candidate
            else candidate + icache_bytes
          in
          minimal + (off / nsets * icache_bytes)
        end
      in
      cursor := addr + Image.size_bytes u;
      (u, addr))
    units

let gaps placement =
  let extents =
    List.map (fun (u, a) -> (a, a + Image.size_bytes u)) placement
    |> List.sort compare
  in
  let rec go acc = function
    | (_, e1) :: ((s2, _) :: _ as rest) -> go (acc + max 0 (s2 - e1)) rest
    | _ -> acc
  in
  go 0 extents
