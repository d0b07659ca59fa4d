(* Clock, order statistics and JSON output shared by every subcommand. *)

module Json = Protolat_obs.Json

(* CLOCK_MONOTONIC in seconds: comparable across processes, so a parent's
   spawn instant and a child's first timed input share one time base. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Nearest-rank percentile (an actual sample, never interpolated). *)
let percentile = Protolat_util.Stats.percentile

let median xs = percentile 50.0 xs

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so spreads printed here match the
   acceptance arithmetic applied to BENCHMARK.json bounds. *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "quartiles: empty";
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let sum xs = List.fold_left ( +. ) 0.0 xs

(* ----- JSON output ---------------------------------------------------------- *)

let num f = Json.Num f

let int i = Json.Num (float_of_int i)

let str s = Json.Str s

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Numbers keep every digit (%.17g round-trips a double); integral values
   print without a fraction. *)
let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec to_string = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Num f -> number f
  | Json.Str s -> "\"" ^ escape s ^ "\""
  | Json.Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Json.Obj l ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) l)
    ^ "}"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let parse_file path =
  match Json.parse (read_file path) with
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* The checked-out commit, read from [.git] in the working directory only
   (no [git] process, which would search parent directories); "unknown"
   in an exported tree. *)
let git_rev () =
  let read p = String.trim (read_file (Filename.concat ".git" p)) in
  try
    let head = read "HEAD" in
    let rev =
      if String.starts_with ~prefix:"ref: " head then begin
        let r = String.sub head 5 (String.length head - 5) in
        try read r
        with Sys_error _ ->
          read "packed-refs" |> String.split_on_char '\n'
          |> List.find_map (fun l ->
                 match String.split_on_char ' ' l with
                 | [ h; name ] when name = r -> Some h
                 | _ -> None)
          |> Option.value ~default:"unknown"
      end
      else head
    in
    if String.length rev > 12 then String.sub rev 0 12 else rev
  with Sys_error _ -> "unknown"

(* ----- JSON input ----------------------------------------------------------- *)

let get_num k v =
  match Json.member k v with Some (Json.Num f) -> f | _ -> failwith ("missing " ^ k)

let get_str k v =
  match Json.member k v with Some (Json.Str s) -> s | _ -> failwith ("missing " ^ k)

let get_list k v = match Json.member k v with Some (Json.Arr l) -> l | _ -> []

let get_obj k v = match Json.member k v with Some (Json.Obj l) -> l | _ -> []
