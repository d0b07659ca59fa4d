let schema_version = 4

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

type v =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of v list
  | Obj of (string * v) list

exception Fail of int * string

let fail pos msg = raise (Fail (pos, msg))

type state = {
  s : string;
  mutable pos : int;
}

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let continue = ref true in
  while !continue do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | _ -> continue := false
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st.pos (Printf.sprintf "expected '%c'" c)

let parse_literal st lit value =
  let n = String.length lit in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = lit
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos ("expected " ^ lit)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st.pos "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buf
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> fail st.pos "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if st.pos + 4 > String.length st.s then
            fail st.pos "truncated \\u escape";
          let hex = String.sub st.s st.pos 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | None -> fail st.pos "bad \\u escape"
          | Some code ->
            st.pos <- st.pos + 4;
            (* keep it simple: store BMP code points as UTF-8 *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf
                (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end)
        | c -> fail (st.pos - 1) (Printf.sprintf "bad escape '\\%c'" c));
        go ())
    | Some c when Char.code c < 0x20 -> fail st.pos "control char in string"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  let text = String.sub st.s start (st.pos - start) in
  match float_of_string_opt text with
  | Some v -> v
  | None -> fail start ("bad number: " ^ text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let fields = ref [] in
      let continue = ref true in
      while !continue do
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        fields := (key, v) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' -> advance st
        | Some '}' ->
          advance st;
          continue := false
        | _ -> fail st.pos "expected ',' or '}'"
      done;
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else begin
      let items = ref [] in
      let continue = ref true in
      while !continue do
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' -> advance st
        | Some ']' ->
          advance st;
          continue := false
        | _ -> fail st.pos "expected ',' or ']'"
      done;
      Arr (List.rev !items)
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some _ -> Num (parse_number st)

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then
      Error (Printf.sprintf "offset %d: trailing garbage" st.pos)
    else Ok v
  | exception Fail (pos, msg) -> Error (Printf.sprintf "offset %d: %s" pos msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let array_length = function Arr l -> List.length l | _ -> 0

module Out = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Fixed of int * float
    | Real of float
    | Str of string
    | Arr of t list
    | Rows of t list
    | Obj of (string * t) list

  type layout =
    | Compact
    | Report

  (* fixed-format float rendering so exports are bit-identical across runs *)
  let real v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.6f" v

  let document ?kind fields =
    Obj
      ((("schema_version", Int schema_version)
       :: (match kind with Some k -> [ ("kind", Str k) ] | None -> []))
      @ fields)

  let to_string layout doc =
    let b = Buffer.create 4096 in
    let add = Buffer.add_string b in
    let comma, colon =
      match layout with Compact -> (",", ":") | Report -> (", ", ": ")
    in
    let indent depth =
      match layout with
      | Compact -> ""
      | Report -> String.make (2 * depth) ' '
    in
    let sep_list sep f l =
      List.iteri
        (fun i x ->
          if i > 0 then add sep;
          f x)
        l
    in
    let rec value depth = function
      | Null -> add "null"
      | Bool x -> add (string_of_bool x)
      | Int i -> add (string_of_int i)
      | Fixed (digits, x) -> Printf.bprintf b "%.*f" digits x
      | Real x -> add (real x)
      | Str s -> Printf.bprintf b "\"%s\"" (escape s)
      | Arr l ->
        add "[";
        sep_list comma (value depth) l;
        add "]"
      | Rows l ->
        (* one row per line; an empty list still opens and closes on
           lines of their own *)
        add "[\n";
        sep_list ",\n"
          (fun row ->
            add (indent (depth + 1));
            value (depth + 1) row)
          l;
        add ("\n" ^ indent depth ^ "]")
      | Obj fields ->
        add "{";
        sep_list comma (field depth) fields;
        add "}"
    and field depth (k, v) =
      Printf.bprintf b "\"%s\"%s" (escape k) colon;
      value depth v
    in
    (match (layout, doc) with
    | Report, Obj fields ->
      add "{\n  ";
      sep_list ",\n  " (field 1) fields;
      add "\n}\n"
    | _ -> value 0 doc);
    Buffer.contents b
end
