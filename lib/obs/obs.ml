(* Lightweight observability for the profiling pipeline.

   One global, domain-safe registry of named counters, gauges, timing spans
   and throughput meters. The registry starts *disabled*: every update is a
   single atomic flag load plus a branch, so instrumentation can live in hot
   paths (the dependence engine, the parallel profiler's producer loop)
   without perturbing the slowdown numbers the benchmarks measure. When
   enabled — by `--stats` on the CLI or by the bench harness — a run yields a
   phase-by-phase cost breakdown exportable as one JSON document or in the
   Prometheus text format.

   Counters are atomic so profiler worker domains can publish concurrently;
   registration takes a mutex but happens once per metric name. *)

(* ---- JSON ---- *)

(* A deliberately small JSON implementation (no external dependency): value
   type, compact and indented printers, and a recursive-descent parser used
   by the exporter round-trip tests and by consumers of BENCH_*.json files. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let add_escaped b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  (* Floats must re-parse as floats: keep a decimal point (or exponent), and
     never emit the non-JSON tokens inf/nan. *)
  let float_repr x =
    if not (Float.is_finite x) then "0"
    else if Float.is_integer x && Float.abs x < 1e15 then
      Printf.sprintf "%.1f" x
    else Printf.sprintf "%.12g" x

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float x -> Buffer.add_string b (float_repr x)
    | String s ->
        Buffer.add_char b '"';
        add_escaped b s;
        Buffer.add_char b '"'
    | List xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            write b x)
          xs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            add_escaped b k;
            Buffer.add_string b "\":";
            write b v)
          kvs;
        Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 256 in
    write b v;
    Buffer.contents b

  let pretty v =
    let b = Buffer.create 256 in
    let pad n = Buffer.add_string b (String.make n ' ') in
    let rec go indent = function
      | (Null | Bool _ | Int _ | Float _ | String _) as v -> write b v
      | List [] -> Buffer.add_string b "[]"
      | List xs ->
          Buffer.add_string b "[\n";
          List.iteri
            (fun i x ->
              if i > 0 then Buffer.add_string b ",\n";
              pad (indent + 2);
              go (indent + 2) x)
            xs;
          Buffer.add_char b '\n';
          pad indent;
          Buffer.add_char b ']'
      | Obj [] -> Buffer.add_string b "{}"
      | Obj kvs ->
          Buffer.add_string b "{\n";
          List.iteri
            (fun i (k, v) ->
              if i > 0 then Buffer.add_string b ",\n";
              pad (indent + 2);
              Buffer.add_char b '"';
              add_escaped b k;
              Buffer.add_string b "\": ";
              go (indent + 2) v)
            kvs;
          Buffer.add_char b '\n';
          pad indent;
          Buffer.add_char b '}'
    in
    go 0 v;
    Buffer.contents b

  exception Parse_error of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg =
      raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
    in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then (
        pos := !pos + l;
        v)
      else fail "bad literal"
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        incr pos;
        if c = '"' then Buffer.contents b
        else if c = '\\' then begin
          if !pos >= n then fail "truncated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let code =
                match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
                | Some c -> c
                | None -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              (* encode the code point as UTF-8 *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
          | _ -> fail "bad escape");
          go ()
        end
        else begin
          Buffer.add_char b c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let in_number c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && in_number s.[!pos] do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then (
            incr pos;
            Obj [])
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (members [])
          end
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then (
            incr pos;
            List [])
          else begin
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  elements (v :: acc)
              | Some ']' ->
                  incr pos;
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            List (elements [])
          end
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
      | None -> fail "empty input"
    in
    try
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then Error "trailing characters after value" else Ok v
    with Parse_error m -> Error m

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
  let get_int = function Int i -> Some i | _ -> None

  let get_float = function
    | Float f -> Some f
    | Int i -> Some (float_of_int i)
    | _ -> None

  let get_string = function String s -> Some s | _ -> None
end

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* ---- timeline tracing ---- *)

(* A lock-free per-domain buffer of timestamped events, exported as Chrome
   Trace Event JSON (chrome://tracing / Perfetto). Each domain appends only
   to its own buffer — the hot path is a flag load, a DLS read and an array
   store — so worker domains of the parallel profiler can trace concurrently
   without synchronisation. The global buffer list is only locked at domain
   registration (once per domain) and at export/reset time. *)
module Trace = struct
  type ev = {
    e_ph : char;   (* 'B' begin | 'E' end | 'i' instant | 'C' counter *)
    e_name : string;
    e_ts : int;    (* monotonic nanoseconds *)
    e_value : int; (* counter value; 0 otherwise *)
  }

  let dummy_ev = { e_ph = 'i'; e_name = ""; e_ts = 0; e_value = 0 }

  type buf = {
    b_tid : int;                    (* the owning domain's id *)
    mutable b_track : string option;(* display name of this domain's track *)
    mutable b_evs : ev array;
    mutable b_len : int;
  }

  let tracing = Atomic.make false
  let enable () = Atomic.set tracing true
  let disable () = Atomic.set tracing false
  let is_enabled () = Atomic.get tracing

  let bufs_lock = Mutex.create ()
  let bufs : buf list ref = ref []

  let key =
    Domain.DLS.new_key (fun () ->
        let b =
          { b_tid = (Domain.self () :> int);
            b_track = None;
            b_evs = Array.make 256 dummy_ev;
            b_len = 0 }
        in
        Mutex.lock bufs_lock;
        bufs := b :: !bufs;
        Mutex.unlock bufs_lock;
        b)

  (* Only the owning domain pushes, so no synchronisation is needed. *)
  let push ph name value =
    let b = Domain.DLS.get key in
    if b.b_len = Array.length b.b_evs then begin
      let a = Array.make (2 * b.b_len) dummy_ev in
      Array.blit b.b_evs 0 a 0 b.b_len;
      b.b_evs <- a
    end;
    b.b_evs.(b.b_len) <-
      { e_ph = ph; e_name = name; e_ts = now_ns (); e_value = value };
    b.b_len <- b.b_len + 1

  let set_track name =
    if Atomic.get tracing then (Domain.DLS.get key).b_track <- Some name

  let instant name = if Atomic.get tracing then push 'i' name 0
  let counter name v = if Atomic.get tracing then push 'C' name v

  let with_span name f =
    if not (Atomic.get tracing) then f ()
    else begin
      push 'B' name 0;
      Fun.protect ~finally:(fun () -> push 'E' name 0) f
    end

  let snapshot_bufs () =
    Mutex.lock bufs_lock;
    let bs = !bufs in
    Mutex.unlock bufs_lock;
    bs

  (* Call only when no other domain is tracing (between runs / experiments):
     buffers are truncated in place. *)
  let reset () =
    List.iter
      (fun b ->
        b.b_len <- 0;
        b.b_track <- None)
      (snapshot_bufs ())

  let event_count () =
    List.fold_left (fun acc b -> acc + b.b_len) 0 (snapshot_bufs ())

  (* ---- Chrome Trace Event export ----

     One JSON object per event; [ts] is in microseconds as the format
     requires. Each domain becomes one track (tid); a thread_name metadata
     record carries the track's display name. *)

  let pid = 1

  let ev_json ~tid e =
    let base =
      [ ("name", Json.String e.e_name);
        ("ph", Json.String (String.make 1 e.e_ph));
        ("ts", Json.Float (float_of_int e.e_ts /. 1e3));
        ("pid", Json.Int pid);
        ("tid", Json.Int tid) ]
    in
    match e.e_ph with
    | 'C' ->
        Json.Obj (base @ [ ("args", Json.Obj [ ("value", Json.Int e.e_value) ]) ])
    | 'i' -> Json.Obj (base @ [ ("s", Json.String "t") ])
    | _ -> Json.Obj base

  let export () =
    let bs =
      snapshot_bufs ()
      |> List.filter (fun b -> b.b_len > 0 || b.b_track <> None)
      |> List.sort (fun a b -> compare a.b_tid b.b_tid)
    in
    let events =
      List.concat_map
        (fun b ->
          let meta =
            match b.b_track with
            | Some name ->
                [ Json.Obj
                    [ ("name", Json.String "thread_name");
                      ("ph", Json.String "M");
                      ("ts", Json.Float 0.0);
                      ("pid", Json.Int pid);
                      ("tid", Json.Int b.b_tid);
                      ("args", Json.Obj [ ("name", Json.String name) ]) ] ]
            | None -> []
          in
          meta @ List.init b.b_len (fun i -> ev_json ~tid:b.b_tid b.b_evs.(i)))
        bs
    in
    Json.Obj
      [ ("traceEvents", Json.List events);
        ("displayTimeUnit", Json.String "ms") ]

  let write path = write_file path (Json.to_string (export ()) ^ "\n")

  exception Invalid of string

  let check doc =
    let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt in
    (* Buffers are appended in clock order, so within one (pid, tid) track
       the exported ts sequence must be non-decreasing. *)
    let last_ts : (int * int, float) Hashtbl.t = Hashtbl.create 8 in
    let check_event i ev =
      let field name =
        match Json.member name ev with
        | Some v -> v
        | None -> invalid "event %d lacks field %S" i name
      in
      let int_field name =
        match Json.get_int (field name) with
        | Some v -> v
        | None -> invalid "event %d: %S not an int" i name
      in
      ignore (field "name");
      (match Json.get_string (field "ph") with
      | Some ("B" | "E" | "i" | "C" | "M" | "X") -> ()
      | _ -> invalid "event %d: bad \"ph\"" i);
      let ts =
        match Json.get_float (field "ts") with
        | Some t -> t
        | None -> invalid "event %d: \"ts\" not a number" i
      in
      let tid = int_field "tid" in
      let pid = int_field "pid" in
      (match Hashtbl.find_opt last_ts (pid, tid) with
      | Some prev when ts < prev ->
          invalid "event %d: ts %.3f goes backwards on track %d/%d" i ts pid
            tid
      | _ -> ());
      Hashtbl.replace last_ts (pid, tid) ts
    in
    try
      let evs =
        match Result.map (Json.member "traceEvents") (Json.of_string doc) with
        | Error msg -> invalid "unparseable JSON (%s)" msg
        | Ok (Some (Json.List [])) -> invalid "traceEvents is empty"
        | Ok (Some (Json.List evs)) -> evs
        | Ok _ -> invalid "no traceEvents list"
      in
      List.iteri check_event evs;
      Ok (List.length evs, Hashtbl.length last_ts)
    with Invalid msg -> Error msg
end

(* ---- request-scoped span collection ---- *)

(* A per-domain collector of completed spans for the *current request*. The
   serve daemon installs one before dispatching a request and drains it
   afterwards, so every {!Span.with_} executed on the handling domain —
   parse, cache lookup, the profiler's own phase spans, rendering — lands in
   that request's span tree in addition to the global registry/timeline.
   One domain handles one request at a time, so plain domain-local state
   (no atomics) is enough; other domains' requests collect independently. *)
module Req = struct
  type entry = {
    sp_name : string;
    sp_start_ns : int; (* absolute monotonic nanoseconds *)
    sp_dur_ns : int;
    sp_depth : int;    (* nesting depth; 0 = top-level phase *)
  }

  type collector = {
    mutable rq_entries : entry list; (* completed spans, most recent first *)
    mutable rq_depth : int;          (* currently open spans *)
  }

  let key : collector option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let current () = !(Domain.DLS.get key)
  let active () = current () <> None

  (* Install a fresh collector for this domain, replacing any leftover. *)
  let start () =
    Domain.DLS.get key := Some { rq_entries = []; rq_depth = 0 }

  (* Record a span that was not measured by {!Span.with_} — e.g. the queue
     wait a request suffered before any handler code ran. *)
  let add ~name ~start_ns ~dur_ns =
    match current () with
    | None -> ()
    | Some c ->
        c.rq_entries <-
          { sp_name = name; sp_start_ns = start_ns; sp_dur_ns = dur_ns;
            sp_depth = c.rq_depth }
          :: c.rq_entries

  let enter c = c.rq_depth <- c.rq_depth + 1

  let exit_ c ~name ~start_ns ~dur_ns =
    c.rq_depth <- c.rq_depth - 1;
    c.rq_entries <-
      { sp_name = name; sp_start_ns = start_ns; sp_dur_ns = dur_ns;
        sp_depth = c.rq_depth }
      :: c.rq_entries

  (* Uninstall the collector and return its spans in chronological order. *)
  let finish () =
    let r = Domain.DLS.get key in
    let entries = match !r with None -> [] | Some c -> c.rq_entries in
    r := None;
    List.stable_sort
      (fun a b -> compare a.sp_start_ns b.sp_start_ns)
      (List.rev entries)

  let entry_json (e : entry) =
    Json.Obj
      [ ("name", Json.String e.sp_name);
        ("start_ns", Json.Int e.sp_start_ns);
        ("dur_ns", Json.Int e.sp_dur_ns);
        ("depth", Json.Int e.sp_depth) ]
end

(* ---- flight recorder ---- *)

(* Two fixed-size rings of completed request records: the main ring keeps
   the last N requests of any kind, the slow ring additionally retains the
   last M requests whose service time crossed a threshold — so one burst of
   fast traffic cannot evict the slow request you are trying to explain.
   Writers are concurrent request handlers; a single mutex per recorder is
   plenty at per-request (not per-event) rates. *)
module Flight = struct
  type record = {
    fr_id : string;           (* trace id, as returned in X-Trace-Id *)
    fr_route : string;        (* e.g. "POST /profile", or "(shed)" *)
    fr_status : int;          (* HTTP status answered *)
    fr_tier : string;         (* cache tier: mem | disk | miss | "-" *)
    fr_queue_ns : int;        (* time spent queued before a handler ran *)
    fr_service_ns : int;      (* handler time, excluding queue wait *)
    fr_done_at : float;       (* unix time at completion *)
    fr_spans : Req.entry list;(* the request's span tree, chronological *)
  }

  type t = {
    fl_lock : Mutex.t;
    fl_ring : record option array;
    mutable fl_next : int;      (* total records ever written to the ring *)
    fl_slow_ns : int;
    fl_slow : record option array;
    mutable fl_slow_next : int;
  }

  let create ~capacity ~slow_capacity ~slow_threshold_s =
    { fl_lock = Mutex.create ();
      fl_ring = Array.make (max 1 capacity) None;
      fl_next = 0;
      fl_slow_ns = int_of_float (Float.max 0.0 slow_threshold_s *. 1e9);
      fl_slow = Array.make (max 1 slow_capacity) None;
      fl_slow_next = 0 }

  let locked t f =
    Mutex.lock t.fl_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.fl_lock) f

  let capacity t = Array.length t.fl_ring
  let slow_threshold_ns t = t.fl_slow_ns

  let record t r =
    locked t @@ fun () ->
    t.fl_ring.(t.fl_next mod Array.length t.fl_ring) <- Some r;
    t.fl_next <- t.fl_next + 1;
    if r.fr_service_ns >= t.fl_slow_ns then begin
      t.fl_slow.(t.fl_slow_next mod Array.length t.fl_slow) <- Some r;
      t.fl_slow_next <- t.fl_slow_next + 1
    end

  let total t = locked t (fun () -> t.fl_next)
  let slow_total t = locked t (fun () -> t.fl_slow_next)

  (* Newest first. Call with the lock held. *)
  let dump_ring ring next =
    let cap = Array.length ring in
    let n = min next cap in
    List.init n (fun i -> ring.((next - 1 - i) mod cap))
    |> List.filter_map Fun.id

  let recent t = locked t (fun () -> dump_ring t.fl_ring t.fl_next)
  let slow t = locked t (fun () -> dump_ring t.fl_slow t.fl_slow_next)

  (* Look a trace id up in either ring: the main window first, then the
     slow ring (which outlives it for slow requests). *)
  let find t id =
    locked t @@ fun () ->
    let scan ring next =
      List.find_opt (fun r -> r.fr_id = id) (dump_ring ring next)
    in
    match scan t.fl_ring t.fl_next with
    | Some r -> Some r
    | None -> scan t.fl_slow t.fl_slow_next

  let record_json (r : record) =
    Json.Obj
      [ ("id", Json.String r.fr_id);
        ("route", Json.String r.fr_route);
        ("status", Json.Int r.fr_status);
        ("cache", Json.String r.fr_tier);
        ("queue_ns", Json.Int r.fr_queue_ns);
        ("service_ns", Json.Int r.fr_service_ns);
        ("done_at", Json.Float r.fr_done_at);
        ("spans", Json.List (List.map Req.entry_json r.fr_spans)) ]

  let to_json t =
    let recent_l, slow_l, total_n, slow_n =
      locked t (fun () ->
          ( dump_ring t.fl_ring t.fl_next,
            dump_ring t.fl_slow t.fl_slow_next,
            t.fl_next,
            t.fl_slow_next ))
    in
    Json.Obj
      [ ("capacity", Json.Int (Array.length t.fl_ring));
        ("slow_capacity", Json.Int (Array.length t.fl_slow));
        ("slow_threshold_ns", Json.Int t.fl_slow_ns);
        ("recorded", Json.Int total_n);
        ("slow_recorded", Json.Int slow_n);
        ("recent", Json.List (List.map record_json recent_l));
        ("slow", Json.List (List.map record_json slow_l)) ]

  (* One request's spans as a Chrome Trace Event document (complete 'X'
     events on a single track), so `GET /trace?id=` output loads directly
     in chrome://tracing / Perfetto and passes `discopop trace-check`. *)
  let chrome_trace (r : record) =
    let span_ev (e : Req.entry) =
      Json.Obj
        [ ("name", Json.String e.sp_name);
          ("ph", Json.String "X");
          ("ts", Json.Float (float_of_int e.sp_start_ns /. 1e3));
          ("dur", Json.Float (float_of_int e.sp_dur_ns /. 1e3));
          ("pid", Json.Int 1);
          ("tid", Json.Int 1) ]
    in
    let events =
      match r.fr_spans with
      | [] ->
          (* Nothing ran (e.g. a shed request): one synthetic event still
             makes the document well-formed and self-describing. *)
          [ Json.Obj
              [ ("name", Json.String ("request " ^ r.fr_route));
                ("ph", Json.String "X");
                ("ts", Json.Float 0.0);
                ("dur", Json.Float (float_of_int r.fr_service_ns /. 1e3));
                ("pid", Json.Int 1);
                ("tid", Json.Int 1) ] ]
      | spans -> List.map span_ev spans
    in
    Json.Obj
      [ ("traceEvents", Json.List events);
        ("displayTimeUnit", Json.String "ms");
        ("otherData",
         Json.Obj
           [ ("trace_id", Json.String r.fr_id);
             ("route", Json.String r.fr_route);
             ("status", Json.Int r.fr_status);
             ("cache", Json.String r.fr_tier);
             ("queue_ns", Json.Int r.fr_queue_ns);
             ("service_ns", Json.Int r.fr_service_ns) ]) ]
end

(* ---- registry ---- *)

type counter = { c_name : string; c_v : int Atomic.t }
type gauge = { g_name : string; g_v : float Atomic.t }

type span = {
  s_name : string;
  s_ns : int Atomic.t;     (* accumulated elapsed nanoseconds *)
  s_calls : int Atomic.t;
}

type meter = { m_name : string; m_per : string; m_count : int Atomic.t }

(* Log-bucketed histogram: 4 sub-buckets per octave (growth ~1.19x, so a
   quantile estimate is within ~9% of the true value) spanning 1ns to ~2^64ns.
   Buckets are atomic so concurrent request handlers can observe without a
   lock; observation is one float log + one fetch_and_add, cheap enough for
   per-request (not per-event) paths. *)
let hist_buckets = 256
let hist_growth = Float.exp (Float.log 2.0 /. 4.0)
let hist_log_growth = Float.log hist_growth

type histogram = {
  h_name : string;
  h_counts : int Atomic.t array;
  h_count : int Atomic.t;
  h_sum_ns : int Atomic.t;
  h_max_ns : int Atomic.t;
}

let enabled = Atomic.make false
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

(* Registration is rare (once per metric name, usually at module init); a
   single mutex over the four tables is plenty. *)
let lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 64
let spans : (string, span) Hashtbl.t = Hashtbl.create 64
let meters : (string, meter) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let find_or_add tbl name make =
  locked (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some x -> x
      | None ->
          let x = make () in
          Hashtbl.replace tbl name x;
          x)

let counter name =
  find_or_add counters name (fun () ->
      { c_name = name; c_v = Atomic.make 0 })

let gauge name =
  find_or_add gauges name (fun () -> { g_name = name; g_v = Atomic.make 0.0 })

let span_of name =
  find_or_add spans name (fun () ->
      { s_name = name; s_ns = Atomic.make 0; s_calls = Atomic.make 0 })

let meter name ~per =
  find_or_add meters name (fun () ->
      { m_name = name; m_per = per; m_count = Atomic.make 0 })

let histogram name =
  find_or_add histograms name (fun () ->
      { h_name = name;
        h_counts = Array.init hist_buckets (fun _ -> Atomic.make 0);
        h_count = Atomic.make 0;
        h_sum_ns = Atomic.make 0;
        h_max_ns = Atomic.make 0 })

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c_v 0) counters;
      Hashtbl.iter (fun _ g -> Atomic.set g.g_v 0.0) gauges;
      Hashtbl.iter
        (fun _ s ->
          Atomic.set s.s_ns 0;
          Atomic.set s.s_calls 0)
        spans;
      Hashtbl.iter (fun _ m -> Atomic.set m.m_count 0) meters;
      Hashtbl.iter
        (fun _ h ->
          Array.iter (fun b -> Atomic.set b 0) h.h_counts;
          Atomic.set h.h_count 0;
          Atomic.set h.h_sum_ns 0;
          Atomic.set h.h_max_ns 0)
        histograms)

module Counter = struct
  let add c n = if Atomic.get enabled then ignore (Atomic.fetch_and_add c.c_v n)
  let incr c = add c 1
  let value c = Atomic.get c.c_v
end

module Gauge = struct
  let set g x = if Atomic.get enabled then Atomic.set g.g_v x
  let set_int g i = set g (float_of_int i)
  let value g = Atomic.get g.g_v
end

module Span = struct
  (* Spans serve three layers: they accumulate into the metrics registry
     when stats are enabled, appear as begin/end slices on the timeline when
     tracing is enabled, AND land in the current request's span tree when
     this domain has a {!Req} collector installed. All three off (the
     default) costs two atomic loads and a domain-local read. *)
  let with_ ~phase f =
    let stats_on = Atomic.get enabled in
    let trace_on = Atomic.get Trace.tracing in
    let req = Req.current () in
    if not (stats_on || trace_on || req <> None) then f ()
    else begin
      if trace_on then Trace.push 'B' phase 0;
      let s = if stats_on then Some (span_of phase) else None in
      (match req with Some c -> Req.enter c | None -> ());
      let t0 = now_ns () in
      Fun.protect
        ~finally:(fun () ->
          let dt = now_ns () - t0 in
          (match s with
          | Some s ->
              ignore (Atomic.fetch_and_add s.s_ns dt);
              ignore (Atomic.fetch_and_add s.s_calls 1)
          | None -> ());
          (match req with
          | Some c -> Req.exit_ c ~name:phase ~start_ns:t0 ~dur_ns:dt
          | None -> ());
          if Atomic.get Trace.tracing then Trace.push 'E' phase 0)
        f
    end

  let ns phase =
    match locked (fun () -> Hashtbl.find_opt spans phase) with
    | Some s -> Atomic.get s.s_ns
    | None -> 0

  let calls phase =
    match locked (fun () -> Hashtbl.find_opt spans phase) with
    | Some s -> Atomic.get s.s_calls
    | None -> 0
end

module Meter = struct
  let mark m n =
    if Atomic.get enabled then ignore (Atomic.fetch_and_add m.m_count n)

  let count m = Atomic.get m.m_count

  (* Events per second against the accumulated wall time of the [per] span;
     0 when the span never ran. *)
  let rate m =
    let ns = Span.ns m.m_per in
    if ns <= 0 then 0.0
    else float_of_int (Atomic.get m.m_count) /. (float_of_int ns /. 1e9)
end

module Histogram = struct
  let bucket_of_ns ns =
    if ns <= 1 then 0
    else
      min (hist_buckets - 1)
        (int_of_float (Float.log (float_of_int ns) /. hist_log_growth))

  (* Geometric midpoint of a bucket's [growth^i, growth^(i+1)) span. *)
  let bucket_mid i = hist_growth ** (float_of_int i +. 0.5)

  let observe h ns =
    if Atomic.get enabled then begin
      let ns = max ns 0 in
      ignore (Atomic.fetch_and_add h.h_counts.(bucket_of_ns ns) 1);
      ignore (Atomic.fetch_and_add h.h_count 1);
      ignore (Atomic.fetch_and_add h.h_sum_ns ns);
      let rec raise_max () =
        let cur = Atomic.get h.h_max_ns in
        if ns > cur && not (Atomic.compare_and_set h.h_max_ns cur ns) then
          raise_max ()
      in
      raise_max ()
    end

  let count h = Atomic.get h.h_count

  (* The value at quantile [q]: walk the cumulative bucket counts to the
     q-th observation and return that bucket's midpoint. Exact for the
     ordering of buckets, ~9% value resolution within one. *)
  let quantile_ns h q =
    let total = Atomic.get h.h_count in
    if total = 0 then 0.0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let target =
        max 1 (int_of_float (Float.round (q *. float_of_int total)))
      in
      let rec walk i acc =
        if i >= hist_buckets then float_of_int (Atomic.get h.h_max_ns)
        else
          let acc = acc + Atomic.get h.h_counts.(i) in
          if acc >= target then
            Float.min (bucket_mid i) (float_of_int (Atomic.get h.h_max_ns))
          else walk (i + 1) acc
      in
      walk 0 0
    end

  let mean_ns h =
    let n = Atomic.get h.h_count in
    if n = 0 then 0.0 else float_of_int (Atomic.get h.h_sum_ns) /. float_of_int n

  let max_ns h = Atomic.get h.h_max_ns
end

let counter_value name =
  match locked (fun () -> Hashtbl.find_opt counters name) with
  | Some c -> Atomic.get c.c_v
  | None -> 0

let gauge_value name =
  match locked (fun () -> Hashtbl.find_opt gauges name) with
  | Some g -> Atomic.get g.g_v
  | None -> 0.0

(* Snapshot the OCaml GC's allocation counters into gauges, so every exported
   stats file carries the run's allocation profile next to its wall-clock
   phases (the substrate of the minor-words/access hot-path metric). *)
let publish_gc () =
  if is_enabled () then begin
    let s = Gc.quick_stat () in
    Gauge.set (gauge "gc.minor_words") s.Gc.minor_words;
    Gauge.set (gauge "gc.major_words") s.Gc.major_words;
    Gauge.set (gauge "gc.promoted_words") s.Gc.promoted_words;
    Gauge.set_int (gauge "gc.minor_collections") s.Gc.minor_collections;
    Gauge.set_int (gauge "gc.major_collections") s.Gc.major_collections
  end

(* ---- export ---- *)

(* Snapshot lists are sorted by metric name so exports are deterministic
   regardless of registration order. *)
let sorted_entries tbl =
  locked (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let span_json (s : span) =
  let ns = Atomic.get s.s_ns in
  Json.Obj
    [ ("ns", Json.Int ns);
      ("s", Json.Float (float_of_int ns /. 1e9));
      ("calls", Json.Int (Atomic.get s.s_calls)) ]

let meter_json (m : meter) =
  Json.Obj
    [ ("count", Json.Int (Atomic.get m.m_count));
      ("per", Json.String m.m_per);
      ("rate_per_s", Json.Float (Meter.rate m)) ]

let histogram_json (h : histogram) =
  Json.Obj
    [ ("count", Json.Int (Atomic.get h.h_count));
      ("mean_ns", Json.Float (Histogram.mean_ns h));
      ("p50_ns", Json.Float (Histogram.quantile_ns h 0.50));
      ("p90_ns", Json.Float (Histogram.quantile_ns h 0.90));
      ("p99_ns", Json.Float (Histogram.quantile_ns h 0.99));
      ("max_ns", Json.Int (Atomic.get h.h_max_ns)) ]

let snapshot () =
  Json.Obj
    [ ("counters",
       Json.Obj
         (List.map
            (fun (k, c) -> (k, Json.Int (Atomic.get c.c_v)))
            (sorted_entries counters)));
      ("gauges",
       Json.Obj
         (List.map
            (fun (k, g) -> (k, Json.Float (Atomic.get g.g_v)))
            (sorted_entries gauges)));
      ("spans",
       Json.Obj
         (List.map (fun (k, s) -> (k, span_json s)) (sorted_entries spans)));
      ("meters",
       Json.Obj
         (List.map (fun (k, m) -> (k, meter_json m)) (sorted_entries meters)));
      ("histograms",
       Json.Obj
         (List.map
            (fun (k, h) -> (k, histogram_json h))
            (sorted_entries histograms)))
    ]

let write_json path = write_file path (Json.pretty (snapshot ()) ^ "\n")

(* ---- Prometheus text exposition ---- *)

(* The same registry in the Prometheus text format (text/plain; version
   0.0.4), so a scraper can poll `GET /metrics?format=prometheus` without a
   translation shim. Dotted metric names sanitize to underscore form;
   counters gain the conventional `_total` suffix; spans and meters render
   as labelled counter families; histograms become proper cumulative
   `_bucket`/`_sum`/`_count` series in seconds, emitting a bucket line only
   where the count changes (le boundaries need not be uniform, and 256
   mostly-empty log buckets would drown the useful ones). *)

(* Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*. *)
let prom_name s =
  if s = "" then "_"
  else begin
    let b = Buffer.create (String.length s) in
    String.iteri
      (fun i c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> Buffer.add_char b c
        | '0' .. '9' ->
            if i = 0 then Buffer.add_char b '_';
            Buffer.add_char b c
        | _ -> Buffer.add_char b '_')
      s;
    Buffer.contents b
  end

(* Label values escape backslash, double quote and newline. *)
let prom_label_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let prometheus () =
  let b = Buffer.create 4096 in
  let typ name kind =
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (fun (k, c) ->
      let n = prom_name k ^ "_total" in
      typ n "counter";
      Buffer.add_string b (Printf.sprintf "%s %d\n" n (Atomic.get c.c_v)))
    (sorted_entries counters);
  List.iter
    (fun (k, g) ->
      let n = prom_name k in
      typ n "gauge";
      Buffer.add_string b
        (Printf.sprintf "%s %s\n" n (prom_float (Atomic.get g.g_v))))
    (sorted_entries gauges);
  (let spans_l = sorted_entries spans in
   if spans_l <> [] then begin
     typ "discopop_span_seconds_total" "counter";
     List.iter
       (fun (k, s) ->
         Buffer.add_string b
           (Printf.sprintf "discopop_span_seconds_total{phase=\"%s\"} %s\n"
              (prom_label_escape k)
              (prom_float (float_of_int (Atomic.get s.s_ns) /. 1e9))))
       spans_l;
     typ "discopop_span_calls_total" "counter";
     List.iter
       (fun (k, s) ->
         Buffer.add_string b
           (Printf.sprintf "discopop_span_calls_total{phase=\"%s\"} %d\n"
              (prom_label_escape k) (Atomic.get s.s_calls)))
       spans_l
   end);
  (let meters_l = sorted_entries meters in
   if meters_l <> [] then begin
     typ "discopop_meter_events_total" "counter";
     List.iter
       (fun (k, m) ->
         Buffer.add_string b
           (Printf.sprintf
              "discopop_meter_events_total{meter=\"%s\",per=\"%s\"} %d\n"
              (prom_label_escape k)
              (prom_label_escape m.m_per)
              (Atomic.get m.m_count)))
       meters_l
   end);
  List.iter
    (fun (k, h) ->
      let n = prom_name k ^ "_seconds" in
      typ n "histogram";
      let acc = ref 0 in
      Array.iteri
        (fun i cnt ->
          let c = Atomic.get cnt in
          if c > 0 then begin
            acc := !acc + c;
            (* Bucket i covers observations up to growth^(i+1) ns. *)
            let le = (hist_growth ** float_of_int (i + 1)) /. 1e9 in
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n (prom_float le)
                 !acc)
          end)
        h.h_counts;
      (* +Inf must close the series at the total even if a concurrent
         observer raced the bucket walk. *)
      let total = max !acc (Atomic.get h.h_count) in
      Buffer.add_string b (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n total);
      Buffer.add_string b
        (Printf.sprintf "%s_sum %s\n" n
           (prom_float (float_of_int (Atomic.get h.h_sum_ns) /. 1e9)));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n total))
    (sorted_entries histograms);
  Buffer.contents b
