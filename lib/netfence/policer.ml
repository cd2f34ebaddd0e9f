type mode = Mark | Police

type t = {
  mutable mode : mode;
  rate_ceiling : float;
  burst : float;
  key : Header.key;
  buckets : (int32, Token_bucket.t) Hashtbl.t;
}

let create ?(mode = Mark) ?(rate_ceiling = 1.25e8) ?(burst = 15000.0) ~key () =
  if rate_ceiling <= 0.0 || burst <= 0.0 then invalid_arg "Policer.create";
  { mode; rate_ceiling; burst; key = Header.key key; buckets = Hashtbl.create 64 }

let mode t = t.mode
let set_mode t m = t.mode <- m
let sender_count t = Hashtbl.length t.buckets

type verdict = Pass | Marked | Dropped

let bucket_for t ~sender ~claimed ~now =
  let rate = Float.max 1.0 (Float.min claimed t.rate_ceiling) in
  match Hashtbl.find_opt t.buckets sender with
  | Some b ->
      Token_bucket.set_rate b rate;
      b
  | None ->
      let b = Token_bucket.create ~rate ~burst:t.burst ~now in
      Hashtbl.replace t.buckets sender b;
      b

let police t buf ~base ~now ~size =
  let sender = Header.get_sender buf ~base in
  let claimed = Header.get_rate buf ~base in
  let bucket = bucket_for t ~sender ~claimed ~now in
  let within = Token_bucket.consume bucket ~now ~bytes:size in
  let verdict =
    if within then Pass
    else
      match t.mode with
      | Mark ->
          Header.set_flag buf ~base Header.Congestion;
          Marked
      | Police -> Dropped
  in
  (* Feedback integrity: stamp whatever flag the packet now carries
     (including a Congestion flag set by an upstream bottleneck). *)
  if verdict <> Dropped then Header.stamp ~key:t.key buf ~base;
  verdict
