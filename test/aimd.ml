(* AIMD rate control, the sender's half of NetFence: congestion
   feedback from the bottleneck (echoed by the receiver, protected by
   the router's MAC) halves the allowed rate, and each feedback-free
   control interval adds an increment. The rate stays within
   [min_rate, max_rate]. test_netfence drives F_cc's feedback loop
   with it. *)

type t = {
  increase : float;
  decrease : float;
  min_rate : float;
  max_rate : float;
  mutable rate : float;
}

let create ?(increase = 12500.0) ?(decrease = 0.5) ?(min_rate = 1250.0)
    ?(max_rate = 1.25e9) ~initial () =
  if initial <= 0.0 || increase <= 0.0 then invalid_arg "Aimd.create";
  if decrease <= 0.0 || decrease >= 1.0 then
    invalid_arg "Aimd.create: decrease must be in (0,1)";
  if min_rate <= 0.0 || max_rate < min_rate then invalid_arg "Aimd.create: rates";
  { increase; decrease; min_rate; max_rate; rate = initial }

let rate t = t.rate

let on_feedback t ~congested =
  let v = if congested then t.rate *. t.decrease else t.rate +. t.increase in
  t.rate <- Float.max t.min_rate (Float.min t.max_rate v)
