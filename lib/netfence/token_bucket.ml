type t = {
  mutable rate : float;
  burst : float;
  mutable tokens : float;
  mutable last : float;
}

let create ~rate ~burst ~now =
  if rate <= 0.0 || burst <= 0.0 then
    invalid_arg "Token_bucket.create: rate and burst must be positive";
  { rate; burst; tokens = burst; last = now }

let set_rate t rate =
  if rate <= 0.0 then invalid_arg "Token_bucket.set_rate: rate must be positive";
  t.rate <- rate

let refill t ~now =
  if now < t.last then invalid_arg "Token_bucket: time went backwards";
  t.tokens <- Float.min t.burst (t.tokens +. ((now -. t.last) *. t.rate));
  t.last <- now

let consume t ~now ~bytes =
  refill t ~now;
  let need = float_of_int bytes in
  if t.tokens >= need then begin
    t.tokens <- t.tokens -. need;
    true
  end
  else false

let available t ~now =
  refill t ~now;
  t.tokens
