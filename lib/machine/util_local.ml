let spread base extras =
  let nb = Array.length base and ne = Array.length extras in
  if ne = 0 then base
  else if nb = 0 then extras
  else begin
    (* Extra i goes right before base element (i+1) * nb / (ne+1); that
       position is below nb, so every extra lands inside the loop. *)
    let out = Array.make (nb + ne) base.(0) in
    let e = ref 0 in
    for i = 0 to nb - 1 do
      while !e < ne && (!e + 1) * nb / (ne + 1) <= i do
        out.(i + !e) <- extras.(!e);
        incr e
      done;
      out.(i + !e) <- base.(i)
    done;
    out
  end

let interleave3 a b c =
  spread (spread (Array.make a `A) (Array.make b `B)) (Array.make c `C)
