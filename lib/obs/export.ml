module M = Metrics

let sanitize name =
  let ok c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = ':'
  in
  let s = String.map (fun c -> if ok c then c else '_') name in
  if s = "" then "_"
  else if s.[0] >= '0' && s.[0] <= '9' then "_" ^ s
  else s

(* Render a float the way Prometheus and JSON both accept: finite
   values as decimals, infinity spelled out. *)
let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let prometheus m =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, help, v) ->
      let n = sanitize name in
      if help <> "" then Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" n help);
      match v with
      | M.Counter_v c ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n c)
      | M.Gauge_v g ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n%s %d\n" n n g)
      | M.Histogram_v h ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
          let acc = ref 0 in
          Array.iteri
            (fun i c ->
              acc := !acc + c;
              (* Only emit the buckets up to the last occupied one,
                 plus +Inf: 40 mostly-empty series per histogram help
                 nobody. *)
              if c > 0 then
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n
                     (float_str (M.Histogram.bound i))
                     !acc))
            h.M.counts;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n h.M.count);
          Buffer.add_string b (Printf.sprintf "%s_sum %s\n" n (float_str h.M.sum));
          Buffer.add_string b (Printf.sprintf "%s_count %d\n" n h.M.count))
    (M.snapshot m);
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_lines m =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, help, v) ->
      let head kind =
        Printf.sprintf "{\"name\":\"%s\",\"type\":\"%s\"" (json_escape name) kind
      in
      let help_field () =
        if help = "" then "" else Printf.sprintf ",\"help\":\"%s\"" (json_escape help)
      in
      (match v with
      | M.Counter_v c ->
          Buffer.add_string b
            (Printf.sprintf "%s,\"value\":%d%s}" (head "counter") c (help_field ()))
      | M.Gauge_v g ->
          Buffer.add_string b
            (Printf.sprintf "%s,\"value\":%d%s}" (head "gauge") g (help_field ()))
      | M.Histogram_v h ->
          Buffer.add_string b (head "histogram");
          Buffer.add_string b
            (Printf.sprintf ",\"count\":%d,\"sum\":%s,\"max\":%s,\"buckets\":["
               h.M.count (float_str h.M.sum) (float_str h.M.max_value));
          let first = ref true in
          Array.iteri
            (fun i c ->
              if c > 0 then begin
                if not !first then Buffer.add_char b ',';
                first := false;
                Buffer.add_string b
                  (Printf.sprintf "{\"le\":%s,\"n\":%d}"
                     (if Float.is_finite (M.Histogram.bound i) then
                        float_str (M.Histogram.bound i)
                      else "\"+Inf\"")
                     c)
              end)
            h.M.counts;
          Buffer.add_string b (Printf.sprintf "]%s}" (help_field ())));
      Buffer.add_char b '\n')
    (M.snapshot m);
  Buffer.contents b

(* --- flight-recorder renderings ----------------------------------- *)

(* Chrome trace-event JSON (the about://tracing / Perfetto format):
   spans become complete ("X") events with microsecond ts/dur, the
   start recovered as end - duration; instants become "i"; counters
   become "C". Timestamps are rebased to the earliest start so the
   trace opens at t=0. *)

let chrome_trace ?(pid_names = []) events =
  let start_ns e =
    match Flight.id_kind e.Flight.ev_id with
    | Flight.Span -> e.Flight.ev_ts - e.Flight.ev_a0
    | Flight.Instant | Flight.Counter -> e.Flight.ev_ts
  in
  let t0 =
    List.fold_left (fun acc e -> Stdlib.min acc (start_ns e)) max_int events
  in
  let t0 = if t0 = max_int then 0 else t0 in
  let us ns = Printf.sprintf "%.3f" (float_of_int (ns - t0) /. 1e3) in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let emit s =
    if not !first then Buffer.add_char b ',';
    first := false;
    Buffer.add_string b s
  in
  List.iter
    (fun (p, name) ->
      emit
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\
            \"args\":{\"name\":\"%s\"}}"
           p (json_escape name)))
    pid_names;
  let threads = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let key = (e.Flight.ev_pid, e.Flight.ev_tid) in
      if not (Hashtbl.mem threads key) then begin
        Hashtbl.add threads key ();
        emit
          (Printf.sprintf
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\
              \"args\":{\"name\":\"domain %d\"}}"
             e.Flight.ev_pid e.Flight.ev_tid e.Flight.ev_tid)
      end)
    events;
  List.iter
    (fun e ->
      let name = json_escape (Flight.id_name e.Flight.ev_id) in
      match Flight.id_kind e.Flight.ev_id with
      | Flight.Span ->
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\
                \"ts\":%s,\"dur\":%.3f,\"args\":{\"a1\":%d,\"a2\":%d}}"
               name e.Flight.ev_pid e.Flight.ev_tid
               (us (e.Flight.ev_ts - e.Flight.ev_a0))
               (float_of_int e.Flight.ev_a0 /. 1e3)
               e.Flight.ev_a1 e.Flight.ev_a2)
      | Flight.Instant ->
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\
                \"tid\":%d,\"ts\":%s,\"args\":{\"a0\":%d,\"a1\":%d,\
                \"a2\":%d}}"
               name e.Flight.ev_pid e.Flight.ev_tid (us e.Flight.ev_ts)
               e.Flight.ev_a0 e.Flight.ev_a1 e.Flight.ev_a2)
      | Flight.Counter ->
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":%d,\"tid\":%d,\
                \"ts\":%s,\"args\":{\"value\":%d}}"
               name e.Flight.ev_pid e.Flight.ev_tid (us e.Flight.ev_ts)
               e.Flight.ev_a0))
    events;
  Buffer.add_string b "]}";
  Buffer.contents b

let timeline events =
  let t0 =
    List.fold_left
      (fun acc e ->
        let s =
          match Flight.id_kind e.Flight.ev_id with
          | Flight.Span -> e.Flight.ev_ts - e.Flight.ev_a0
          | Flight.Instant | Flight.Counter -> e.Flight.ev_ts
        in
        Stdlib.min acc s)
      max_int events
  in
  let t0 = if t0 = max_int then 0 else t0 in
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      let name = Flight.id_name e.Flight.ev_id in
      let at = float_of_int (e.Flight.ev_ts - t0) /. 1e3 in
      (match Flight.id_kind e.Flight.ev_id with
      | Flight.Span ->
          Buffer.add_string b
            (Printf.sprintf
               "%12.3f us  pid=%d tid=%d  %-28s dur=%.3f us a1=%d a2=%d" at
               e.Flight.ev_pid e.Flight.ev_tid name
               (float_of_int e.Flight.ev_a0 /. 1e3)
               e.Flight.ev_a1 e.Flight.ev_a2)
      | Flight.Instant ->
          Buffer.add_string b
            (Printf.sprintf
               "%12.3f us  pid=%d tid=%d  %-28s a0=%d a1=%d a2=%d" at
               e.Flight.ev_pid e.Flight.ev_tid name e.Flight.ev_a0
               e.Flight.ev_a1 e.Flight.ev_a2)
      | Flight.Counter ->
          Buffer.add_string b
            (Printf.sprintf "%12.3f us  pid=%d tid=%d  %-28s value=%d" at
               e.Flight.ev_pid e.Flight.ev_tid name e.Flight.ev_a0));
      Buffer.add_char b '\n')
    events;
  Buffer.contents b

let table m =
  let t =
    Dip_stdext.Tabular.create
      ~aligns:
        [ Dip_stdext.Tabular.Left; Dip_stdext.Tabular.Left;
          Dip_stdext.Tabular.Right ]
      [ "metric"; "type"; "value" ]
  in
  List.iter
    (fun (name, _help, v) ->
      match v with
      | M.Counter_v c ->
          Dip_stdext.Tabular.add_row t [ name; "counter"; string_of_int c ]
      | M.Gauge_v g ->
          Dip_stdext.Tabular.add_row t [ name; "gauge"; string_of_int g ]
      | M.Histogram_v h ->
          let summary =
            if h.M.count = 0 then "n=0"
            else
              let quant = M.snapshot_quantile h in
              Printf.sprintf "n=%d mean=%.1f p50<=%s p99<=%s max=%s" h.M.count
                (h.M.sum /. float_of_int h.M.count)
                (float_str (quant 0.50)) (float_str (quant 0.99))
                (float_str h.M.max_value)
          in
          Dip_stdext.Tabular.add_row t [ name; "histogram"; summary ])
    (M.snapshot m);
  Dip_stdext.Tabular.render t
