module Site = struct
  type t = int

  type shape =
    | Fn
    | Hot of string
    | Cold of string
    | Stub of string * int

  (* The intern table lives outside the OCaml heap, in two Bigarrays
     sized for the sites the stacks declare (about 240, with 3.5 KB of
     names): the names' bytes back to back in [text], and in [tbl]
     [buckets] hash-chain heads followed by a row of three ints per site —
     where its names start in [text], a key packing its shape code (-1 fn,
     -2 hot, -3 cold, i >= 0 the [i]-th stub) with both names' lengths,
     and the previous site in its chain.  Registering them at module
     initialisation so leaves the heap of a process that never meters,
     and the GC's pacing of it, as they were; a heap-resident table
     measurably moved the heap peak of unmetered workloads.  The lock
     keeps late registrations from other domains safe; the per-report
     path never comes here. *)
  let lock = Mutex.create ()

  let ints n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

  let chars n = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n

  let buckets = 256

  let tbl =
    let t = ints (buckets + (3 * 256)) in
    Bigarray.Array1.fill t (-1);
    ref t

  let text = ref (chars 4096)

  let used = ref 0

  let n = ref 0

  let dim = Bigarray.Array1.dim

  let get i = Bigarray.Array1.get !tbl i

  let row s = buckets + (3 * s)

  (* [a] copied into a fresh [create]d array of at least [need] elements *)
  let grown create a need =
    let b = create (max need (2 * dim a)) in
    Bigarray.Array1.blit a (Bigarray.Array1.sub b 0 (dim a));
    b

  let key code flen blen = ((code + 3) lsl 40) lor (flen lsl 20) lor blen

  let len_of key = ((key lsr 20) land 0xFFFFF, key land 0xFFFFF)

  let code_of key = (key lsr 40) - 3

  (* does [s] equal the [String.length s] bytes of [text] at [off]? *)
  let rec same s off i =
    i = String.length s
    || Bigarray.Array1.get !text (off + i) = String.unsafe_get s i
       && same s off (i + 1)

  let rec find func block k s =
    if s < 0 then -1
    else
      let r = row s in
      if get (r + 1) = k && same func (get r) 0
         && same block (get r + String.length func) 0
      then s
      else find func block k (get (r + 2))

  let put s =
    for i = 0 to String.length s - 1 do
      Bigarray.Array1.set !text (!used + i) (String.unsafe_get s i)
    done;
    used := !used + String.length s

  let add func block k b =
    let s = !n in
    if row (s + 1) > dim !tbl then tbl := grown ints !tbl (row (s + 1));
    let len = String.length func + String.length block in
    if !used + len > dim !text then text := grown chars !text (!used + len);
    let r = row s in
    Bigarray.Array1.set !tbl r !used;
    Bigarray.Array1.set !tbl (r + 1) k;
    Bigarray.Array1.set !tbl (r + 2) (get b);
    Bigarray.Array1.set !tbl b s;
    put func;
    put block;
    n := s + 1;
    s

  let intern func block code =
    if String.length func >= 1 lsl 20 || String.length block >= 1 lsl 20 then
      invalid_arg "Meter.Site: name too long";
    let k = key code (String.length func) (String.length block) in
    let b =
      (Hashtbl.hash func + (31 * Hashtbl.hash block) + code) land (buckets - 1)
    in
    Mutex.protect lock (fun () ->
        match find func block k (get b) with
        | -1 -> add func block k b
        | s -> s)

  let fn f = intern f "" (-1)

  let block f b = intern f b (-2)

  let cold f b = intern f b (-3)

  let call f b i =
    if i < 0 || i >= 1 lsl 20 then
      invalid_arg "Meter.Site.call: stub index out of range";
    intern f b i

  let text_at off len =
    String.init len (fun i -> Bigarray.Array1.get !text (off + i))

  let func s =
    Mutex.protect lock (fun () ->
        let r = row s in
        text_at (get r) (fst (len_of (get (r + 1)))))

  let shape s =
    Mutex.protect lock (fun () ->
        let r = row s in
        let k = get (r + 1) in
        let flen, blen = len_of k in
        let block () = text_at (get r + flen) blen in
        match code_of k with
        | -1 -> Fn
        | -2 -> Hot (block ())
        | -3 -> Cold (block ())
        | i -> Stub (block (), i))

  let count () = Mutex.protect lock (fun () -> !n)
end

type t = {
  enter : Site.t -> unit;
  leave : Site.t -> unit;
  read : int -> int -> unit;
  write : int -> int -> unit;
  block : Site.t -> unit;
  cold : triggered:bool -> Site.t -> unit;
  call : Site.t -> unit;
}

let null =
  { enter = (fun _ -> ());
    leave = (fun _ -> ());
    read = (fun _ _ -> ());
    write = (fun _ _ -> ());
    block = (fun _ -> ());
    cold = (fun ~triggered:_ _ -> ());
    call = (fun _ -> ()) }

let both a b =
  { enter =
      (fun s ->
        a.enter s;
        b.enter s);
    leave =
      (fun s ->
        a.leave s;
        b.leave s);
    read =
      (fun base len ->
        a.read base len;
        b.read base len);
    write =
      (fun base len ->
        a.write base len;
        b.write base len);
    block =
      (fun s ->
        a.block s;
        b.block s);
    cold =
      (fun ~triggered s ->
        a.cold ~triggered s;
        b.cold ~triggered s);
    call =
      (fun s ->
        a.call s;
        b.call s) }
