type cls =
  | Alu
  | Load
  | Store
  | Br_taken
  | Br_not_taken
  | Jsr
  | Ret
  | Mul
  | Nop

let bytes = 4

let is_memory = function Load | Store -> true | _ -> false

let is_control = function
  | Br_taken | Br_not_taken | Jsr | Ret -> true
  | Alu | Load | Store | Mul | Nop -> false

let to_string = function
  | Alu -> "alu"
  | Load -> "load"
  | Store -> "store"
  | Br_taken -> "br+"
  | Br_not_taken -> "br-"
  | Jsr -> "jsr"
  | Ret -> "ret"
  | Mul -> "mul"
  | Nop -> "nop"

let all = [ Alu; Load; Store; Br_taken; Br_not_taken; Jsr; Ret; Mul; Nop ]

let n_classes = 9

let code = function
  | Alu -> 0
  | Load -> 1
  | Store -> 2
  | Br_taken -> 3
  | Br_not_taken -> 4
  | Jsr -> 5
  | Ret -> 6
  | Mul -> 7
  | Nop -> 8

let by_code =
  [| Alu; Load; Store; Br_taken; Br_not_taken; Jsr; Ret; Mul; Nop |]

let of_code c =
  if c < 0 || c >= n_classes then invalid_arg "Instr.of_code";
  by_code.(c)

type vector = {
  alu : int;
  load : int;
  store : int;
  br_taken : int;
  br_not_taken : int;
  jsr : int;
  ret : int;
  mul : int;
  nop : int;
}

let zero =
  { alu = 0; load = 0; store = 0; br_taken = 0; br_not_taken = 0; jsr = 0;
    ret = 0; mul = 0; nop = 0 }

let vec ?(alu = 0) ?(load = 0) ?(store = 0) ?(br_taken = 0) ?(br_not_taken = 0)
    ?(jsr = 0) ?(ret = 0) ?(mul = 0) ?(nop = 0) () =
  { alu; load; store; br_taken; br_not_taken; jsr; ret; mul; nop }

let total v =
  v.alu + v.load + v.store + v.br_taken + v.br_not_taken + v.jsr + v.ret
  + v.mul + v.nop

let add a b =
  { alu = a.alu + b.alu;
    load = a.load + b.load;
    store = a.store + b.store;
    br_taken = a.br_taken + b.br_taken;
    br_not_taken = a.br_not_taken + b.br_not_taken;
    jsr = a.jsr + b.jsr;
    ret = a.ret + b.ret;
    mul = a.mul + b.mul;
    nop = a.nop + b.nop }

let scale k v =
  { alu = k * v.alu;
    load = k * v.load;
    store = k * v.store;
    br_taken = k * v.br_taken;
    br_not_taken = k * v.br_not_taken;
    jsr = k * v.jsr;
    ret = k * v.ret;
    mul = k * v.mul;
    nop = k * v.nop }

(* Interleave loads/stores/branches evenly among the ALU body so that the
   cache and issue models see a realistic schedule: loads lead (address
   computation feeds uses), stores trail, control transfers close the
   block. *)
let expand v =
  (* Build body = alu+mul+nop and spread memory ops through it. *)
  let body =
    Array.map
      (function `A -> Alu | `B -> Mul | `C -> Nop)
      (Util_local.interleave3 v.alu v.mul v.nop)
  in
  let merged =
    Util_local.spread body
      (Array.append (Array.make v.load Load) (Array.make v.store Store))
  in
  let control =
    Array.concat
      [ Array.make v.br_not_taken Br_not_taken; Array.make v.jsr Jsr;
        Array.make v.br_taken Br_taken; Array.make v.ret Ret ]
  in
  (* Spread interior control transfers (all but the final one) through the
     block, keeping the last transfer at the block end. *)
  let nc = Array.length control in
  if nc = 0 then merged
  else
    Array.append
      (Util_local.spread merged (Array.sub control 0 (nc - 1)))
      [| control.(nc - 1) |]
