let enabled_flag = ref true

let enabled () = !enabled_flag

let set_enabled b = enabled_flag := b

let dmemo_enabled () = false

type t = Trace.t

let segment (_ : Params.t) trace = trace

let rebind t trace' =
  if Trace.length trace' <> Trace.length t then
    invalid_arg "Blockcache.rebind: trace length mismatch";
  trace'

let replay t m = ignore (Memsys.run m t)

let n_runs t =
  let n = ref 0 in
  for i = 0 to Trace.length t - 1 do
    if i = 0 || Trace.pc_at t i <> Trace.pc_at t (i - 1) + 4 then incr n
  done;
  !n

type totals = {
  t_fast_runs : int;
  t_slow_runs : int;
}

let totals () = { t_fast_runs = 0; t_slow_runs = 0 }
