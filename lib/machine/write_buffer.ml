(* Ring buffer over a fixed int array: [write] runs once per Store
   instruction on the engine's hot path, so entry management must not
   allocate (a list representation costs ~depth cons cells per write). *)
type t = {
  depth : int;
  depth_mask : int; (* depth - 1 when depth is a power of two, else -1 *)
  block_shift : int; (* log2 block_bytes *)
  buf : int array; (* circular; oldest entry at [head] *)
  mutable head : int;
  mutable count : int;
  mutable merges : int;
  mutable writes : int;
  mutable retires : int;
}

type outcome =
  | Merged
  | Buffered
  | Retired of int

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ~depth ~block_bytes =
  if depth <= 0 then invalid_arg "Write_buffer.create";
  if block_bytes <= 0 || block_bytes land (block_bytes - 1) <> 0 then
    invalid_arg "Write_buffer.create: block_bytes must be a power of two";
  { depth;
    depth_mask = (if depth land (depth - 1) = 0 then depth - 1 else -1);
    block_shift = log2 block_bytes;
    buf = Array.make depth 0;
    head = 0;
    count = 0;
    merges = 0;
    writes = 0;
    retires = 0 }

let wrap t i = if t.depth_mask >= 0 then i land t.depth_mask else i mod t.depth

let rec mem_from t block i =
  i < t.count
  && (t.buf.(wrap t (t.head + i)) = block || mem_from t block (i + 1))

let mem t block = mem_from t block 0

let write t addr =
  let block = addr lsr t.block_shift in
  t.writes <- t.writes + 1;
  if mem t block then begin
    t.merges <- t.merges + 1;
    Merged
  end
  else if t.count < t.depth then begin
    t.buf.(wrap t (t.head + t.count)) <- block;
    t.count <- t.count + 1;
    Buffered
  end
  else begin
    (* evict the oldest entry; the vacated slot becomes the new tail *)
    let oldest = t.buf.(t.head) in
    t.buf.(t.head) <- block;
    t.head <- wrap t (t.head + 1);
    t.retires <- t.retires + 1;
    Retired oldest
  end

let drain t =
  let out = List.init t.count (fun i -> t.buf.(wrap t (t.head + i))) in
  t.head <- 0;
  t.count <- 0;
  t.retires <- t.retires + List.length out;
  out

let occupancy t = t.count

let merges t = t.merges

let writes t = t.writes

let retires t = t.retires

let reset_stats t =
  t.merges <- 0;
  t.writes <- 0;
  t.retires <- 0

(* Restore the exact state of a fresh [create]. *)
let clear t =
  t.head <- 0;
  t.count <- 0;
  t.merges <- 0;
  t.writes <- 0;
  t.retires <- 0
