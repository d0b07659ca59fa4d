let hex_digit = "0123456789abcdef"

let digits ~width v =
  (* the common case: a non-negative value that fits in [width] digits *)
  if v >= 0 && width >= 1 && width < 16 && v < 1 lsl (4 * width) then width
  else begin
    (* [%x] prints an int as unsigned, so [lsr] (not [asr]) counts digits *)
    let rec go n v = if v = 0 then n else go (n + 1) (v lsr 4) in
    max width (max 1 (go 0 v))
  end

let blit b pos ~digits:n v =
  for i = 0 to n - 1 do
    (* an int has at most 16 hex digits; shifting by 64 is unspecified *)
    let d = if i < 16 then (v lsr (4 * i)) land 15 else 0 in
    Bytes.set b (pos + n - 1 - i) (String.unsafe_get hex_digit d)
  done;
  pos + n

let to_string ~width v =
  let n = digits ~width v in
  let b = Bytes.create n in
  ignore (blit b 0 ~digits:n v);
  Bytes.unsafe_to_string b
