type access =
  | Read of int
  | Write of int

type event = {
  pc : int;
  cls : Instr.cls;
  access : access option;
}

(* Struct-of-arrays storage: one int column per field instead of a vector
   of boxed event records.  The simulator's hot path appends thousands of
   events per roundtrip; packing them into flat int arrays means appending
   allocates nothing (amortized) and replaying is a linear scan with no
   pointer chasing — the paper's own §2.2 medicine applied to the
   simulator itself.  The columns grow by doubling from 1024 slots, or
   to exactly the size a caller that knows the count asks [reserve] for. *)
type t = {
  mutable pcs : int array;
  mutable clss : int array;  (* Instr.code *)
  mutable kinds : int array;  (* access kind: kind_none/read/write *)
  mutable addrs : int array;  (* data address; 0 when kind_none *)
  mutable fids : int array;  (* interned originating-function id; -1 = none *)
  mutable len : int;
  intern_tbl : (string, int) Hashtbl.t;
  mutable funcs : string array;
  mutable n_funcs : int;
}

let kind_none = 0

let kind_read = 1

let kind_write = 2

let create () =
  { pcs = [||];
    clss = [||];
    kinds = [||];
    addrs = [||];
    fids = [||];
    len = 0;
    intern_tbl = Hashtbl.create 32;
    funcs = [||];
    n_funcs = 0 }

let length t = t.len

let intern t name =
  match Hashtbl.find_opt t.intern_tbl name with
  | Some i -> i
  | None ->
    if t.n_funcs = Array.length t.funcs then begin
      let a = Array.make (max 32 (2 * t.n_funcs)) "" in
      Array.blit t.funcs 0 a 0 t.n_funcs;
      t.funcs <- a
    end;
    let i = t.n_funcs in
    t.funcs.(i) <- name;
    t.n_funcs <- i + 1;
    Hashtbl.add t.intern_tbl name i;
    i

let n_funcs t = t.n_funcs

let func_name t i = t.funcs.(i)

let resize t cap =
  let g fill a =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.pcs <- g 0 t.pcs;
  t.clss <- g 0 t.clss;
  t.kinds <- g 0 t.kinds;
  t.addrs <- g 0 t.addrs;
  t.fids <- g (-1) t.fids

let reserve t n = if t.len + n > Array.length t.pcs then resize t (t.len + n)

let add_packed t ~pc ~cls ~kind ~addr ~fid =
  if t.len = Array.length t.pcs then
    resize t (max 1024 (2 * Array.length t.pcs));
  let i = t.len in
  t.pcs.(i) <- pc;
  t.clss.(i) <- Instr.code cls;
  t.kinds.(i) <- kind;
  t.addrs.(i) <- addr;
  t.fids.(i) <- fid;
  t.len <- i + 1

let add t ~pc ~cls ?access () =
  match access with
  | None -> add_packed t ~pc ~cls ~kind:kind_none ~addr:0 ~fid:(-1)
  | Some (Read a) -> add_packed t ~pc ~cls ~kind:kind_read ~addr:a ~fid:(-1)
  | Some (Write a) -> add_packed t ~pc ~cls ~kind:kind_write ~addr:a ~fid:(-1)

let pc_at t i = t.pcs.(i)

let cls_at t i = Instr.of_code t.clss.(i)

let kind_at t i = t.kinds.(i)

let addr_at t i = t.addrs.(i)

let fid_at t i = t.fids.(i)

let access_at t i =
  match t.kinds.(i) with
  | 0 -> None
  | 1 -> Some (Read t.addrs.(i))
  | _ -> Some (Write t.addrs.(i))

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get";
  { pc = t.pcs.(i); cls = cls_at t i; access = access_at t i }

let iter f t =
  for i = 0 to t.len - 1 do
    f { pc = t.pcs.(i); cls = cls_at t i; access = access_at t i }
  done

let map_pcs f t =
  { t with
    pcs = Array.map f (Array.sub t.pcs 0 t.len);
    clss = Array.sub t.clss 0 t.len;
    kinds = Array.sub t.kinds 0 t.len;
    addrs = Array.sub t.addrs 0 t.len;
    fids = Array.sub t.fids 0 t.len;
    intern_tbl = Hashtbl.copy t.intern_tbl;
    funcs = Array.copy t.funcs }

let class_counts t =
  let counts = Array.make Instr.n_classes 0 in
  for i = 0 to t.len - 1 do
    let c = t.clss.(i) in
    counts.(c) <- counts.(c) + 1
  done;
  List.map (fun c -> (c, counts.(Instr.code c))) Instr.all

let taken_branch_fraction t =
  let taken_code = Instr.code Instr.Br_taken in
  let taken = ref 0 in
  for i = 0 to t.len - 1 do
    if t.clss.(i) = taken_code then incr taken
  done;
  if t.len = 0 then 0.0 else float_of_int !taken /. float_of_int t.len

let distinct_blocks t ~block_bytes =
  let seen = Hashtbl.create 256 in
  for i = 0 to t.len - 1 do
    Hashtbl.replace seen (t.pcs.(i) / block_bytes) ()
  done;
  Hashtbl.length seen

let touched_instr_offsets t =
  let seen = Hashtbl.create 1024 in
  for i = 0 to t.len - 1 do
    Hashtbl.replace seen t.pcs.(i) ()
  done;
  seen

(* ----- text export ------------------------------------------------------- *)

let cls_to_tag = function
  | Instr.Alu -> "alu"
  | Instr.Load -> "ld"
  | Instr.Store -> "st"
  | Instr.Br_taken -> "bt"
  | Instr.Br_not_taken -> "bn"
  | Instr.Jsr -> "jsr"
  | Instr.Ret -> "ret"
  | Instr.Mul -> "mul"
  | Instr.Nop -> "nop"

let event_to_string t i =
  let pc = t.pcs.(i) in
  let tag = cls_to_tag (cls_at t i) in
  let core =
    match t.kinds.(i) with
    | 0 -> Printf.sprintf "%x %s" pc tag
    | 1 -> Printf.sprintf "%x %s R %x" pc tag t.addrs.(i)
    | _ -> Printf.sprintf "%x %s W %x" pc tag t.addrs.(i)
  in
  let fid = t.fids.(i) in
  if fid < 0 then core else core ^ " @" ^ t.funcs.(fid)

let to_string t =
  let buf = Buffer.create 4096 in
  for i = 0 to t.len - 1 do
    Buffer.add_string buf (event_to_string t i);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
