(* Every duration the benchmark reports is read from the monotonic
   clock: a wall-clock step (NTP) in the middle of a run would
   otherwise show up as a latency spike or a negative phase. *)

let now () = Monotonic_clock.now ()
let seconds a b = Int64.to_float (Int64.sub b a) *. 1e-9
let since t0 = seconds t0 (now ())

let time f =
  let t0 = now () in
  let r = f () in
  (r, since t0)
