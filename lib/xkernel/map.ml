(* A binding keeps the [Some value] a hit returns, so a lookup allocates
   nothing. *)
type 'v binding = {
  key : string;
  value : 'v;
  found : 'v option;  (* [Some value] *)
}

type 'v bucket = {
  mutable chain : 'v binding list;
  mutable on_list : bool;
  mutable next_nonempty : int;  (* -1 = end of list *)
}

type counters = {
  resolves : int;
  cache_hits : int;
  key_compares : int;
  buckets_scanned : int;
}

type 'v t = {
  buckets : 'v bucket array;
  mask : int;
  mutable head : int;  (* head of the non-empty bucket list, -1 if none *)
  (* the one-entry cache: the last binding found, as its key and its
     [found]; [None] when empty *)
  mutable cache_key : string;
  mutable cache : 'v option;
  mutable cached : bool;  (* the last [resolve] was a cache hit *)
  mutable n : int;
  mutable c_resolves : int;
  mutable c_cache_hits : int;
  mutable c_key_compares : int;
  mutable c_buckets_scanned : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ?(buckets = 256) () =
  if not (is_pow2 buckets) then invalid_arg "Map.create: buckets must be 2^k";
  { buckets =
      Array.init buckets (fun _ ->
          { chain = []; on_list = false; next_nonempty = -1 });
    mask = buckets - 1;
    head = -1;
    cache_key = "";
    cache = None;
    cached = false;
    n = 0;
    c_resolves = 0;
    c_cache_hits = 0;
    c_key_compares = 0;
    c_buckets_scanned = 0 }

let bucket_count t = Array.length t.buckets

let size t = t.n

(* FNV-1a over the key bytes. *)
let hash key =
  let h = ref 0x811C9DC5 in
  for i = 0 to String.length key - 1 do
    h := !h lxor Char.code (String.unsafe_get key i);
    h := !h * 0x01000193 land 0x3FFFFFFF
  done;
  !h

let index t key = hash key land t.mask

let push_nonempty t i =
  let b = t.buckets.(i) in
  if not b.on_list then begin
    b.on_list <- true;
    b.next_nonempty <- t.head;
    t.head <- i
  end

let mem key chain = List.exists (fun b -> String.equal b.key key) chain

let rec remove key = function
  | [] -> []
  | b :: rest -> if String.equal b.key key then rest else b :: remove key rest

let bind t key v =
  let i = index t key in
  let b = t.buckets.(i) in
  let binding = { key; value = v; found = Some v } in
  let existed = mem key b.chain in
  if existed then b.chain <- binding :: remove key b.chain
  else begin
    b.chain <- binding :: b.chain;
    t.n <- t.n + 1
  end;
  push_nonempty t i;
  if t.cache != None && String.equal t.cache_key key then
    t.cache <- binding.found

let unbind t key =
  let i = index t key in
  let b = t.buckets.(i) in
  if mem key b.chain then begin
    b.chain <- remove key b.chain;
    t.n <- t.n - 1;
    (* lazy: the bucket stays on the non-empty list even if now empty *)
    if t.cache != None && String.equal t.cache_key key then t.cache <- None;
    true
  end
  else false

let rec probe t key = function
  | [] -> None
  | b :: rest ->
    t.c_key_compares <- t.c_key_compares + 1;
    if String.equal b.key key then begin
      t.cache_key <- b.key;
      t.cache <- b.found;
      b.found
    end
    else probe t key rest

let resolve t key =
  t.c_resolves <- t.c_resolves + 1;
  match t.cache with
  | Some _ as found
    when (t.c_key_compares <- t.c_key_compares + 1;
          String.equal t.cache_key key) ->
    t.c_cache_hits <- t.c_cache_hits + 1;
    t.cached <- true;
    found
  | _ ->
    t.cached <- false;
    probe t key t.buckets.(index t key).chain

let cache_answered t = t.cached

let resolve_detail t key =
  match resolve t key with
  | Some v -> Some (v, if t.cached then `Cache_hit else `Probed)
  | None -> None

let traverse t f =
  (* Walk the non-empty list; unlink buckets found empty (lazy cleanup).
     One visitor per call, not one per bucket. *)
  let visit b = f b.key b.value in
  let prev = ref (-1) in
  let cur = ref t.head in
  while !cur >= 0 do
    let b = t.buckets.(!cur) in
    t.c_buckets_scanned <- t.c_buckets_scanned + 1;
    let next = b.next_nonempty in
    if b.chain = [] then begin
      (* unlink *)
      b.on_list <- false;
      b.next_nonempty <- -1;
      if !prev < 0 then t.head <- next
      else t.buckets.(!prev).next_nonempty <- next
    end
    else begin
      List.iter visit b.chain;
      prev := !cur
    end;
    cur := next
  done

let traverse_all_buckets t f =
  let visit b = f b.key b.value in
  Array.iter
    (fun b ->
      t.c_buckets_scanned <- t.c_buckets_scanned + 1;
      List.iter visit b.chain)
    t.buckets

let nonempty_list_length t =
  let n = ref 0 in
  let cur = ref t.head in
  while !cur >= 0 do
    incr n;
    cur := t.buckets.(!cur).next_nonempty
  done;
  !n

let counters t =
  { resolves = t.c_resolves;
    cache_hits = t.c_cache_hits;
    key_compares = t.c_key_compares;
    buckets_scanned = t.c_buckets_scanned }

let reset_counters t =
  t.c_resolves <- 0;
  t.c_cache_hits <- 0;
  t.c_key_compares <- 0;
  t.c_buckets_scanned <- 0
