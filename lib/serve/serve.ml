(* discopop serve: a resident profiling-as-a-service daemon.

   The ROADMAP's production north star is a long-lived service that amortizes
   profiling cost across many requests. This module is that service: a
   hand-rolled HTTP/1.1 daemon (no dependencies beyond Unix) that accepts MIL
   programs over POST /profile, runs them through the pipeline on a pool of
   persistent worker domains, and answers repeats from an in-process LRU in
   front of the on-disk cache.

   Shape:

     acceptor domain --> bounded connection queue --> N worker domains

   Admission control happens at the acceptor: when the queue is full the
   connection is answered 429 + Retry-After immediately, so overload degrades
   into fast rejections instead of unbounded latency. Each request carries a
   deadline; the cooperative-cancel poll the interpreter already exposes
   checks the clock, so a runaway program aborts mid-run and the request
   answers 504 without a dedicated watchdog domain. Every connection is
   HTTP/1.1 with Connection: close — one request per connection keeps the
   parser trivial and the workers stateless. *)

let now () = Unix.gettimeofday ()

(* ---- Obs wiring ---- *)

let c_ok = Obs.counter "serve.requests.ok"
let c_shed = Obs.counter "serve.requests.shed"
let c_timeout = Obs.counter "serve.requests.timeout"
let c_failed = Obs.counter "serve.requests.failed"
let c_bad = Obs.counter "serve.requests.bad"
let c_mem_hit = Obs.counter "serve.cache.mem_hit"
let c_disk_hit = Obs.counter "serve.cache.disk_hit"
let c_miss = Obs.counter "serve.cache.miss"
let g_queue = Obs.gauge "serve.queue.depth"

(* serve.latency (from enqueue, queue wait included) predates the split
   pair and stays for baseline continuity; queue_wait + service decompose
   it so an overloaded queue and a slow handler are distinguishable. *)
let h_latency = Obs.histogram "serve.latency"
let h_queue_wait = Obs.histogram "serve.queue_wait"
let h_service = Obs.histogram "serve.service"

(* ---- configuration ---- *)

type config = {
  port : int;
  jobs : int;
  queue_capacity : int;
  deadline_s : float;
  cache_dir : string option;
  cache_limits : Pipeline.Cache.limits;
  mem_capacity : int;
  profile : Pipeline.Cache.config;
  flight_capacity : int;
  slow_capacity : int;
  slow_threshold_s : float;
  flight_dump : string option;
}

let default_config =
  { port = 8123;
    jobs = 4;
    queue_capacity = 32;
    deadline_s = 30.0;
    cache_dir = None;
    cache_limits = Pipeline.Cache.no_limits;
    mem_capacity = 128;
    profile = Pipeline.Cache.default_config;
    flight_capacity = 512;
    slow_capacity = 64;
    slow_threshold_s = 0.25;
    flight_dump = None }

(* ---- trace ids ---- *)

(* Request ids are a per-daemon tag (boot time xor pid, so two daemons on
   one host do not collide) plus a process-wide sequence number. Opaque,
   cheap, and unique within any plausible flight-recorder window. *)
let id_seq = Atomic.make 0

let fresh_id_tag () =
  (int_of_float (Unix.gettimeofday () *. 1e3)
   lxor (Unix.getpid () * 2654435761))
  land 0xffffffff

let fresh_trace_id tag =
  Printf.sprintf "%08x%06x" tag (Atomic.fetch_and_add id_seq 1 land 0xffffff)

(* ---- minimal HTTP plumbing ---- *)

let max_body = 8 * 1024 * 1024

let reason_of_status = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 504 -> "Gateway Timeout"
  | _ -> "Unknown"

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    let n = Unix.write_substring fd s !off (len - !off) in
    if n <= 0 then raise Exit;
    off := !off + n
  done

let write_response fd ~status ?(headers = []) body =
  let buf = Buffer.create (String.length body + 256) in
  Buffer.add_string buf
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (reason_of_status status));
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  if not (List.mem_assoc "Content-Type" headers) then
    Buffer.add_string buf "Content-Type: text/plain\r\n";
  Buffer.add_string buf
    (Printf.sprintf "Content-Length: %d\r\nConnection: close\r\n\r\n"
       (String.length body));
  Buffer.add_string buf body;
  write_all fd (Buffer.contents buf)

type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
}

let percent_decode s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> raise Exit
  in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '+' -> Buffer.add_char buf ' '
    | '%' when !i + 2 < n -> (
        match (hex s.[!i + 1], hex s.[!i + 2]) with
        | hi, lo ->
            Buffer.add_char buf (Char.chr ((hi * 16) + lo));
            i := !i + 2
        | exception Exit -> Buffer.add_char buf '%')
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let parse_target target =
  match String.index_opt target '?' with
  | None -> (target, [])
  | Some q ->
      let path = String.sub target 0 q in
      let rest = String.sub target (q + 1) (String.length target - q - 1) in
      let params =
        String.split_on_char '&' rest
        |> List.filter (fun s -> s <> "")
        |> List.map (fun kv ->
               match String.index_opt kv '=' with
               | None -> (percent_decode kv, "")
               | Some e ->
                   ( percent_decode (String.sub kv 0 e),
                     percent_decode
                       (String.sub kv (e + 1) (String.length kv - e - 1)) ))
      in
      (path, params)

(* Read one request: buffer until the header terminator, then exactly
   Content-Length body bytes. Sockets carry a receive timeout, so a stalled
   client errors out instead of pinning a worker. *)
let read_request fd : (request, string) result =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let find_headers_end () =
    let s = Buffer.contents buf in
    let rec go i =
      if i + 3 >= String.length s then None
      else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
              && s.[i + 3] = '\n'
      then Some i
      else go (i + 1)
    in
    go 0
  in
  let rec fill_headers () =
    match find_headers_end () with
    | Some i -> Ok i
    | None ->
        if Buffer.length buf > 64 * 1024 then Error "headers too large"
        else
          let n = try Unix.read fd chunk 0 4096 with _ -> 0 in
          if n = 0 then Error "connection closed before headers"
          else begin
            Buffer.add_subbytes buf chunk 0 n;
            fill_headers ()
          end
  in
  match fill_headers () with
  | Error e -> Error e
  | Ok head_end -> (
      let head = Buffer.sub buf 0 head_end in
      match String.split_on_char '\n' head with
      | [] -> Error "empty request"
      | request_line :: header_lines -> (
          let strip s = String.trim s in
          match String.split_on_char ' ' (strip request_line) with
          | meth :: target :: _ ->
              let headers =
                List.filter_map
                  (fun line ->
                    match String.index_opt line ':' with
                    | None -> None
                    | Some c ->
                        Some
                          ( String.lowercase_ascii (strip (String.sub line 0 c)),
                            strip
                              (String.sub line (c + 1)
                                 (String.length line - c - 1)) ))
                  header_lines
              in
              let content_length =
                match List.assoc_opt "content-length" headers with
                | None -> 0
                | Some v -> ( try int_of_string (strip v) with _ -> -1)
              in
              if content_length < 0 || content_length > max_body then
                Error "bad content-length"
              else begin
                let body_start = head_end + 4 in
                let rec fill_body () =
                  if Buffer.length buf - body_start >= content_length then
                    Ok ()
                  else
                    let n = try Unix.read fd chunk 0 4096 with _ -> 0 in
                    if n = 0 then Error "connection closed before body"
                    else begin
                      Buffer.add_subbytes buf chunk 0 n;
                      fill_body ()
                    end
                in
                match fill_body () with
                | Error e -> Error e
                | Ok () ->
                    let body = Buffer.sub buf body_start content_length in
                    let path, query = parse_target target in
                    Ok { meth; path; query; headers; body }
              end
          | _ -> Error "malformed request line"))

(* ---- request-level profiler configuration ---- *)

(* Profiler worker domains one profile may use: each is a domain for the
   life of the profile, and the runtime's domain limit is process-wide. *)
let max_profile_workers = 8

(* The checks a profile config passes, whether it arrives as the daemon's
   defaults or in a request's query. *)
let check_profile (p : Profiler.Profile.config) =
  match Profiler.Profile.check p with
  | Ok { workers; _ } when workers > max_profile_workers ->
      Error (Printf.sprintf "workers must be <= %d" max_profile_workers)
  | r -> r

let profile_config_of_query ~(base : Pipeline.Cache.config) query :
    (Pipeline.Cache.config, string) result =
  let ( let* ) = Result.bind in
  let int_param name v =
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "bad %s: %s" name v)
  in
  let bool_param name v =
    match v with
    | "true" | "1" -> Ok true
    | "false" | "0" -> Ok false
    | _ -> Error (Printf.sprintf "bad %s: %s" name v)
  in
  List.fold_left
    (fun acc (k, v) ->
      let* (c : Pipeline.Cache.config) = acc in
      let p = c.profile in
      let set p =
        let* profile = check_profile p in
        Ok { c with profile }
      in
      match k with
      | "shadow" -> (
          match String.split_on_char ':' v with
          | [ "perfect" ] -> set { p with shadow = Perfect }
          | [ "signature"; n ] -> (
              match int_of_string_opt n with
              | Some n -> set { p with shadow = Signature n }
              | None -> Error (Printf.sprintf "bad signature slots: %s" n))
          | _ -> Error (Printf.sprintf "bad shadow: %s" v))
      | "skip" ->
          let* b = bool_param "skip" v in
          set { p with skip = b }
      | "workers" ->
          let* n = int_param "workers" v in
          set { p with workers = n }
      | "threads" ->
          let* n = int_param "threads" v in
          if n < 1 then Error "threads must be >= 1"
          else Ok { c with threads = n }
      | _ -> Ok c (* name/format/deadline/entry handled elsewhere *))
    (Ok base) query

(* ---- the daemon ---- *)

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  mem : Pipeline.Mem_cache.t;
  queue : (Unix.file_descr * float) Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  stopping : bool Atomic.t;
  flight : Obs.Flight.t;
  id_tag : int;
  mutable acceptor : unit Domain.t option;
  mutable workers : unit Domain.t list;
}

let port t = t.bound_port
let mem_cache t = t.mem
let flight t = t.flight

(* Per-request response context: the trace id rides every response as
   X-Trace-Id, and the handler's status / cache tier are captured here so
   the flight record matches what the client was actually told. *)
type ctx = {
  cx_id : string;
  cx_fd : Unix.file_descr;
  mutable cx_status : int;
  mutable cx_tier : string;
}

let respond cx ~status ?(headers = []) body =
  cx.cx_status <- status;
  write_response cx.cx_fd ~status
    ~headers:(("X-Trace-Id", cx.cx_id) :: headers)
    body
let request_stop t =
  Atomic.set t.stopping true;
  Mutex.lock t.lock;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock

let stopping t = Atomic.get t.stopping

(* ---- /profile ---- *)

let handle_profile t (req : request) ~(enqueued : float) cx =
  let qp name = List.assoc_opt name req.query in
  let name = Option.value (qp "name") ~default:"posted" in
  let format = Option.value (qp "format") ~default:"summary" in
  match profile_config_of_query ~base:t.cfg.profile req.query with
  | Error msg ->
      Obs.Counter.incr c_bad;
      respond cx ~status:400 (msg ^ "\n")
  | Ok config -> (
      match
        Obs.Span.with_ ~phase:"serve.parse" (fun () ->
            Mil.Parse.program ~name ?entry:(qp "entry") req.body)
      with
      | Error msg ->
          Obs.Counter.incr c_bad;
          respond cx ~status:400 ("MIL parse error: " ^ msg ^ "\n")
      | Ok prog -> (
          let deadline_s =
            match Option.bind (qp "deadline") float_of_string_opt with
            | Some d -> Float.min d t.cfg.deadline_s
            | None -> t.cfg.deadline_s
          in
          let deadline_at = enqueued +. deadline_s in
          let cancelled () =
            Atomic.get t.stopping || now () > deadline_at
          in
          let key = Pipeline.Cache.key config prog in
          let respond_entry ~cache_tag (deps, summary) =
            cx.cx_tier <- cache_tag;
            Obs.Span.with_ ~phase:"serve.render" @@ fun () ->
            let entries =
              match Discovery.Suggestion.summary_of_string summary with
              | Ok es -> es
              | Error _ -> []
            in
            let headers = [ ("X-Cache", cache_tag) ] in
            match format with
            | "depfile" ->
                respond cx ~status:200 ~headers
                  (Profiler.Depfile.render deps)
            | "json" ->
                let open Obs.Json in
                respond cx ~status:200
                  ~headers:(("Content-Type", "application/json") :: headers)
                  (pretty
                     (Obj
                        [ ("name", String name);
                          ("key", String key);
                          ("cache", String cache_tag);
                          ("deps", Int (Profiler.Dep.Set_.cardinal deps));
                          ("suggestions", Int (List.length entries));
                          ("summary", String summary) ])
                   ^ "\n")
            | _ -> respond cx ~status:200 ~headers summary
          in
          match
            Obs.Span.with_ ~phase:"serve.cache_lookup" (fun () ->
                Pipeline.lookup ~mem:t.mem ?dir:t.cfg.cache_dir ~key ())
          with
          | Some entry, tier ->
              Obs.Counter.incr
                (match tier with
                | Pipeline.Mem -> c_mem_hit
                | Pipeline.Disk -> c_disk_hit
                | Pipeline.Uncached -> c_miss (* unreachable on a hit *));
              Obs.Counter.incr c_ok;
              respond_entry
                ~cache_tag:(match tier with Pipeline.Mem -> "mem" | _ -> "disk")
                entry
          | None, _ -> (
              Obs.Counter.incr c_miss;
              let job =
                Pipeline.uncached_job ?cache_dir:t.cfg.cache_dir
                  ~cache_limits:t.cfg.cache_limits ~mem:t.mem ~name ~config
                  ~key prog
              in
              match Pipeline.run_job ~cancelled job with
              | Pipeline.Ok_ ok ->
                  Obs.Counter.incr c_ok;
                  (* The job carries its dependence set + summary, so
                     depfile/json render from the fresh result even when no
                     cache tier is configured. *)
                  respond_entry ~cache_tag:"miss" ok.Pipeline.jr_entry
              | Pipeline.Timed_out ->
                  Obs.Counter.incr c_timeout;
                  respond cx ~status:504
                    (Printf.sprintf "deadline of %.3fs exceeded\n" deadline_s)
              | Pipeline.Failed msg ->
                  Obs.Counter.incr c_failed;
                  respond cx ~status:500 (msg ^ "\n"))))

(* ---- GET /metrics, /trace, /requests ---- *)

let handle_metrics cx (req : request) =
  match List.assoc_opt "format" req.query with
  | None | Some "json" ->
      respond cx ~status:200
        ~headers:[ ("Content-Type", "application/json") ]
        (Obs.Json.pretty (Obs.snapshot ()) ^ "\n")
  | Some "prometheus" ->
      respond cx ~status:200
        ~headers:
          [ ("Content-Type", "text/plain; version=0.0.4; charset=utf-8") ]
        (Obs.prometheus ())
  | Some other ->
      Obs.Counter.incr c_bad;
      respond cx ~status:400
        (Printf.sprintf "unknown metrics format: %s\n" other)

let handle_trace t cx (req : request) =
  match List.assoc_opt "id" req.query with
  | None | Some "" ->
      Obs.Counter.incr c_bad;
      respond cx ~status:400 "missing id query parameter\n"
  | Some id -> (
      match Obs.Flight.find t.flight id with
      | Some r ->
          respond cx ~status:200
            ~headers:[ ("Content-Type", "application/json") ]
            (Obs.Json.pretty (Obs.Flight.chrome_trace r) ^ "\n")
      | None ->
          respond cx ~status:404
            (Printf.sprintf "no record of trace %s in the flight window\n" id))

(* ---- connection handling ---- *)

let handle_conn t ~(enqueued : float) fd =
  let started = now () in
  let started_ns = Obs.now_ns () in
  let queue_ns = max 0 (int_of_float ((started -. enqueued) *. 1e9)) in
  let cx =
    { cx_id = fresh_trace_id t.id_tag;
      cx_fd = fd;
      cx_status = 0;
      cx_tier = "-" }
  in
  (* Collect every span the handler runs — parse, cache lookup, the
     profiler's own phases, rendering — into this request's tree. *)
  Obs.Req.start ();
  let route = ref "(bad)" in
  let profile_req = ref false in
  let dispatch () =
    match read_request fd with
    | Error msg ->
        Obs.Counter.incr c_bad;
        respond cx ~status:400 (msg ^ "\n")
    | Ok req -> (
        route := req.meth ^ " " ^ req.path;
        match (req.meth, req.path) with
        | "GET", "/health" -> respond cx ~status:200 "ok\n"
        | "GET", "/metrics" -> handle_metrics cx req
        | "GET", "/trace" -> handle_trace t cx req
        | "GET", "/requests" ->
            respond cx ~status:200
              ~headers:[ ("Content-Type", "application/json") ]
              (Obs.Json.pretty (Obs.Flight.to_json t.flight) ^ "\n")
        | "POST", "/shutdown" ->
            respond cx ~status:200 "shutting down\n";
            request_stop t
        | "POST", "/profile" ->
            profile_req := true;
            handle_profile t req ~enqueued cx
        | ( _,
            ( "/profile" | "/shutdown" | "/health" | "/metrics" | "/trace"
            | "/requests" ) ) ->
            Obs.Counter.incr c_bad;
            respond cx ~status:405 "method not allowed\n"
        | _ ->
            Obs.Counter.incr c_bad;
            respond cx ~status:404 "not found\n")
  in
  let record () =
    (* The queue wait predates the collector; splice it in as a synthetic
       top-level span so the trace starts when the request did. *)
    let spans =
      { Obs.Req.sp_name = "queue_wait";
        sp_start_ns = started_ns - queue_ns;
        sp_dur_ns = queue_ns;
        sp_depth = 0 }
      :: Obs.Req.finish ()
    in
    let done_at = now () in
    let service_ns = max 0 (int_of_float ((done_at -. started) *. 1e9)) in
    if !profile_req then begin
      Obs.Histogram.observe h_latency
        (max 0 (int_of_float ((done_at -. enqueued) *. 1e9)));
      Obs.Histogram.observe h_queue_wait queue_ns;
      Obs.Histogram.observe h_service service_ns
    end;
    Obs.Flight.record t.flight
      { Obs.Flight.fr_id = cx.cx_id;
        fr_route = !route;
        fr_status = cx.cx_status;
        fr_tier = cx.cx_tier;
        fr_queue_ns = queue_ns;
        fr_service_ns = service_ns;
        fr_done_at = done_at;
        fr_spans = spans }
  in
  match dispatch () with
  | () -> record ()
  | exception e ->
      record ();
      raise e

let worker_loop t =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not (Atomic.get t.stopping) do
      Condition.wait t.nonempty t.lock
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.lock (* stopping: drain done *)
    else begin
      let fd, enqueued = Queue.pop t.queue in
      Obs.Gauge.set_int g_queue (Queue.length t.queue);
      Mutex.unlock t.lock;
      (try handle_conn t ~enqueued fd with _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      loop ()
    end
  in
  loop ()

let admit t fd =
  Unix.clear_nonblock fd;
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0
   with Unix.Unix_error _ -> ());
  Mutex.lock t.lock;
  let depth = Queue.length t.queue in
  if depth >= t.cfg.queue_capacity || Atomic.get t.stopping then begin
    Mutex.unlock t.lock;
    (* Load shed at admission: answer before any parsing so a full queue
       costs the server almost nothing. Shed requests still get a trace id
       and a flight record — an invisible rejection is the exact failure
       mode the recorder exists to explain. *)
    Obs.Counter.incr c_shed;
    let id = fresh_trace_id t.id_tag in
    (try
       write_response fd ~status:429
         ~headers:[ ("Retry-After", "1"); ("X-Trace-Id", id) ]
         "server at capacity\n"
     with _ -> ());
    Obs.Flight.record t.flight
      { Obs.Flight.fr_id = id;
        fr_route = "(shed)";
        fr_status = 429;
        fr_tier = "-";
        fr_queue_ns = 0;
        fr_service_ns = 0;
        fr_done_at = now ();
        fr_spans = [] };
    try Unix.close fd with Unix.Unix_error _ -> ()
  end
  else begin
    Queue.push (fd, now ()) t.queue;
    Obs.Gauge.set_int g_queue (depth + 1);
    Condition.signal t.nonempty;
    Mutex.unlock t.lock
  end

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.select [ t.listen_fd ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept t.listen_fd with
          | exception
              Unix.Unix_error
                ( (Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED | Unix.EINTR),
                  _,
                  _ ) ->
              ()
          | fd, _ -> admit t fd));
      loop ()
    end
  in
  (* Unblock on a listener closed out from under us during shutdown. *)
  try loop () with Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()

let start (cfg : config) : t =
  Result.iter_error invalid_arg (check_profile cfg.profile.profile);
  (* A worker writing to a connection the client already closed must see
     EPIPE, not die of SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Obs.enable ();
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.set_nonblock listen_fd;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, cfg.port));
  Unix.listen listen_fd 64;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> cfg.port
  in
  let t =
    { cfg;
      listen_fd;
      bound_port;
      mem = Pipeline.Mem_cache.create ~capacity:cfg.mem_capacity;
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      stopping = Atomic.make false;
      flight =
        Obs.Flight.create ~capacity:cfg.flight_capacity
          ~slow_capacity:cfg.slow_capacity
          ~slow_threshold_s:cfg.slow_threshold_s;
      id_tag = fresh_id_tag ();
      acceptor = None;
      workers = [] }
  in
  t.workers <-
    List.init (max 1 cfg.jobs) (fun i ->
        Domain.spawn (fun () ->
            Obs.Trace.set_track (Printf.sprintf "serve worker %d" i);
            worker_loop t));
  t.acceptor <-
    Some
      (Domain.spawn (fun () ->
           Obs.Trace.set_track "serve acceptor";
           accept_loop t));
  t

let stop t =
  request_stop t;
  Option.iter Domain.join t.acceptor;
  t.acceptor <- None;
  List.iter Domain.join t.workers;
  t.workers <- [];
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (* Connections still queued were never handled; close them so clients see
     EOF promptly rather than a timeout. *)
  Queue.iter
    (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.queue;
  Queue.clear t.queue

let run (cfg : config) : unit =
  let t = start cfg in
  let on_signal _ = request_stop t in
  let restore =
    List.filter_map
      (fun s ->
        try Some (s, Sys.signal s (Sys.Signal_handle on_signal))
        with Invalid_argument _ | Sys_error _ -> None)
      [ Sys.sigint; Sys.sigterm ]
  in
  Printf.printf "discopop serve: listening on 127.0.0.1:%d (%d workers, queue %d, deadline %.1fs)\n%!"
    t.bound_port (max 1 cfg.jobs) cfg.queue_capacity cfg.deadline_s;
  while not (Atomic.get t.stopping) do
    Unix.sleepf 0.05
  done;
  stop t;
  List.iter (fun (s, old) -> try Sys.set_signal s old with _ -> ()) restore;
  (* Dump the flight recorder on the way out: the last window of requests
     (and retained slow ones) survives the daemon for post-mortems. *)
  (match cfg.flight_dump with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Obs.Json.pretty (Obs.Flight.to_json t.flight));
      output_char oc '\n';
      close_out oc;
      Printf.printf
        "discopop serve: flight recorder (%d requests, %d slow) -> %s\n%!"
        (Obs.Flight.total t.flight)
        (Obs.Flight.slow_total t.flight)
        path);
  Printf.printf "discopop serve: stopped\n%!"

(* ---- a minimal HTTP client (tests, bench, smoke) ---- *)

module Client = struct
  type response = {
    status : int;
    headers : (string * string) list;
    body : string;
  }

  let read_all fd =
    let buf = Buffer.create 4096 in
    let chunk = Bytes.create 4096 in
    let rec go () =
      match Unix.read fd chunk 0 4096 with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
    in
    go ();
    Buffer.contents buf

  let split_head raw =
    let n = String.length raw in
    let rec go i =
      if i + 3 >= n then None
      else if raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
              && raw.[i + 3] = '\n'
      then Some (String.sub raw 0 i, String.sub raw (i + 4) (n - i - 4))
      else go (i + 1)
    in
    go 0

  let parse_response raw : (response, string) result =
    match split_head raw with
    | None -> Error "no header terminator in response"
    | Some (head, body) -> (
        match String.split_on_char '\n' head with
        | status_line :: header_lines -> (
            match String.split_on_char ' ' (String.trim status_line) with
            | _http :: code :: _ -> (
                match int_of_string_opt code with
                | None -> Error ("bad status: " ^ status_line)
                | Some status ->
                    let headers =
                      List.filter_map
                        (fun line ->
                          match String.index_opt line ':' with
                          | None -> None
                          | Some c ->
                              Some
                                ( String.lowercase_ascii
                                    (String.trim (String.sub line 0 c)),
                                  String.trim
                                    (String.sub line (c + 1)
                                       (String.length line - c - 1)) ))
                        header_lines
                    in
                    Ok { status; headers; body })
            | _ -> Error ("bad status line: " ^ status_line))
        | [] -> Error "empty response")

  let request ?(meth = "GET") ?(body = "") ~port path :
      (response, string) result =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
        with
        | exception Unix.Unix_error (e, _, _) ->
            Error ("connect: " ^ Unix.error_message e)
        | () -> (
            let req =
              Printf.sprintf
                "%s %s HTTP/1.1\r\nHost: 127.0.0.1:%d\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
                meth path port (String.length body) body
            in
            match write_all fd req with
            | exception _ -> Error "write failed"
            | () -> parse_response (read_all fd)))

  let get ~port path = request ~meth:"GET" ~port path
  let post ~port ~body path = request ~meth:"POST" ~body ~port path
end
