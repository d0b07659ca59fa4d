type t = {
  mutable data : Bytes.t;
  mutable head : int;
  mutable length : int;
  mutable addr : int;  (* simulated address of data.(0) *)
  mutable refcount : int;
  headroom : int;
}

let reserve sim ?(headroom = 128) payload_len =
  Simmem.alloc sim (headroom + payload_len)

let alloc_at ~addr ?(headroom = 128) payload_len =
  { data = Bytes.make (headroom + payload_len) '\000';
    head = headroom;
    length = payload_len;
    addr;
    refcount = 1;
    headroom }

let alloc sim ?(headroom = 128) payload_len =
  alloc_at ~addr:(reserve sim ~headroom payload_len) ~headroom payload_len

let of_string sim ?(headroom = 128) s =
  let m = alloc sim ~headroom (String.length s) in
  Bytes.blit_string s 0 m.data m.head (String.length s);
  m

let len t = t.length

let sim_addr t = t.addr + t.head

let push t hdr =
  let n = Bytes.length hdr in
  if t.head < n then failwith "Msg.push: headroom exhausted";
  t.head <- t.head - n;
  Bytes.blit hdr 0 t.data t.head n;
  t.length <- t.length + n

let pop t n =
  if n > t.length then invalid_arg "Msg.pop: message too short";
  let out = Bytes.sub t.data t.head n in
  t.head <- t.head + n;
  t.length <- t.length - n;
  out

let peek t off n =
  if off + n > t.length then invalid_arg "Msg.peek: out of range";
  Bytes.sub t.data (t.head + off) n

let blit_into t buf off = Bytes.blit t.data t.head buf off t.length

let contents t = Bytes.sub t.data t.head t.length

let set_payload t payload =
  let n = Bytes.length payload in
  if t.headroom + n > Bytes.length t.data then begin
    t.data <- Bytes.make (t.headroom + n) '\000'
  end;
  Bytes.blit payload 0 t.data t.headroom n;
  t.head <- t.headroom;
  t.length <- n

let retain t = t.refcount <- t.refcount + 1

let refs t = t.refcount

let release t =
  if t.refcount <= 0 then invalid_arg "Msg.release: already freed";
  t.refcount <- t.refcount - 1;
  if t.refcount = 0 then `Freed else `Shared

type refresh_outcome =
  | Reused
  | Reallocated

let refresh ?(shortcircuit = true) sim t =
  if shortcircuit && t.refcount = 1 then begin
    t.head <- t.headroom;
    t.length <- Bytes.length t.data - t.headroom;
    Bytes.fill t.data 0 (Bytes.length t.data) '\000';
    Reused
  end
  else begin
    (* destroy, then allocate an equivalent fresh buffer *)
    ignore (release t);
    let size = Bytes.length t.data in
    t.data <- Bytes.make size '\000';
    t.addr <- Simmem.alloc sim size;
    t.head <- t.headroom;
    t.length <- size - t.headroom;
    t.refcount <- 1;
    Reallocated
  end
