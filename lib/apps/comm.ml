(* Detecting communication patterns on multicore systems (§5.3, Fig. 5.1):
   cross-thread RAW dependences captured by the profiler form a thread-to-
   thread communication matrix — cell (i, j) counts values produced by thread
   j and consumed by thread i. The matrix shape distinguishes the patterns
   the paper's Fig. 5.1 shows for splash2x (all-to-all, neighbour,
   master-worker...). *)

module Dep = Profiler.Dep

type matrix = {
  threads : int;
  counts : int array array;  (* consumer x producer *)
}

let of_deps (deps : Dep.Set_.t) : matrix =
  let top = ref 0 in
  Dep.Set_.iter
    (fun d _ ->
      if d.Dep.dtype = Dep.Raw then begin
        if d.Dep.sink_thread > !top then top := d.Dep.sink_thread;
        if d.Dep.src_thread > !top then top := d.Dep.src_thread
      end)
    deps;
  (* Threads past the 32nd are left out of the matrix. *)
  let n = min 32 (!top + 1) in
  let counts = Array.make_matrix n n 0 in
  Dep.Set_.iter
    (fun d cnt ->
      if
        d.Dep.dtype = Dep.Raw && d.Dep.sink_thread >= 0 && d.Dep.src_thread >= 0
        && d.Dep.sink_thread < n && d.Dep.src_thread < n
      then
        counts.(d.Dep.sink_thread).(d.Dep.src_thread) <-
          counts.(d.Dep.sink_thread).(d.Dep.src_thread) + cnt)
    deps;
  { threads = n; counts }

type pattern = All_to_all | Master_worker | Neighbour | Uncoupled

(* Classify by where the cross-thread communication mass sits. *)
let classify (m : matrix) : pattern =
  let n = m.threads in
  if n <= 1 then Uncoupled
  else begin
    let total = ref 0 and master = ref 0 and neigh = ref 0 in
    for c = 0 to n - 1 do
      for p = 0 to n - 1 do
        if c <> p then begin
          total := !total + m.counts.(c).(p);
          if p = 0 || c = 0 then master := !master + m.counts.(c).(p);
          if abs (c - p) = 1 then neigh := !neigh + m.counts.(c).(p)
        end
      done
    done;
    if !total = 0 then Uncoupled
    else if 10 * !master >= 9 * !total then Master_worker
    else if 10 * !neigh >= 8 * !total then Neighbour
    else All_to_all
  end

let pattern_to_string = function
  | All_to_all -> "all-to-all"
  | Master_worker -> "master-worker"
  | Neighbour -> "neighbour"
  | Uncoupled -> "uncoupled"

(* ASCII heatmap in the style of Fig. 5.1. Self-communication (the diagonal)
   is not communication between threads and is suppressed so the
   inter-thread structure is visible. *)
let render (m : matrix) : string =
  let buf = Buffer.create 256 in
  let cell c p = if c = p then 0 else m.counts.(c).(p) in
  let maxc = ref 1 in
  Array.iteri
    (fun c row -> Array.iteri (fun p _ -> if cell c p > !maxc then maxc := cell c p) row)
    m.counts;
  let shades = [| ' '; '.'; ':'; '+'; '#'; '@' |] in
  Buffer.add_string buf "      producer ->\n";
  Array.iteri
    (fun c row ->
      Buffer.add_string buf (Printf.sprintf "  t%-2d |" c);
      Array.iteri
        (fun p _ ->
          let v = cell c p in
          let lvl =
            if v = 0 then 0 else 1 + (v * (Array.length shades - 2) / !maxc)
          in
          Buffer.add_char buf
            (if c = p then '-'
             else shades.(min lvl (Array.length shades - 1)));
          Buffer.add_char buf ' ')
        row;
      Buffer.add_string buf "|\n")
    m.counts;
  Buffer.contents buf
