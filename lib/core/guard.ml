type t = { max_ops : int; max_state_bytes : int }

let create ?(max_ops = 32) ?(max_state_bytes = 256) () =
  if max_ops < 1 || max_state_bytes < 0 then invalid_arg "Guard.create";
  { max_ops; max_state_bytes }


type budget = { limits : t; mutable ops : int; mutable state : int }

let start limits = { limits; ops = 0; state = 0 }

let restart b =
  b.ops <- 0;
  b.state <- 0

let charge_op b =
  b.ops <- b.ops + 1;
  b.ops <= b.limits.max_ops

let charge_state b ~bytes =
  b.state <- b.state + bytes;
  b.state <= b.limits.max_state_bytes

let state_used b = b.state
