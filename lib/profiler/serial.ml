(* The serial DiscoPoP profiler front end: runs a MIL program under the
   instrumenting interpreter and feeds every event to one dependence engine,
   the PET builder, and lifetime analysis. This is the configuration the
   paper reports as "serial" in Fig. 2.9, and the reference implementation the
   lock-free parallel profiler must agree with. *)

type result = {
  deps : Dep.Set_.t;
  pet : Pet.t;
  races : (string * int * int) list;
  accesses : int;            (* dynamic memory instructions profiled *)
  skip_stats : Engine.skip_stats;
  footprint_words : int;     (* resident words of profiling structures *)
  merging_factor : float;
  redistributions : int;     (* always 0: no profiler moves an address *)
  per_worker : int array;    (* accesses per worker; [| accesses |] when serial *)
}

(* Run-level metrics shared with the parallel profiler, so serial and
   parallel runs of the same workload are directly comparable in a stats
   export ("profiler.accesses" and "profiler.deps" must agree). *)
let c_accesses = Obs.counter "profiler.accesses"
let c_deps = Obs.counter "profiler.deps"
let g_footprint = Obs.gauge "profiler.footprint_words"
let g_merging = Obs.gauge "profiler.merging_factor"
let g_lstack_nodes = Obs.gauge "profiler.lstack.nodes"
let g_lstack_words = Obs.gauge "profiler.lstack.words"

let publish ~accesses ~deps ~footprint_words ~merging_factor ~lstacks =
  if Obs.is_enabled () then begin
    Obs.Gauge.set_int g_lstack_nodes (Trace.Intern.Lstack.nodes lstacks);
    Obs.Gauge.set_int g_lstack_words (Trace.Intern.Lstack.words lstacks);
    Obs.Counter.add c_accesses accesses;
    Obs.Counter.add c_deps (Dep.Set_.cardinal deps);
    Obs.Gauge.set_int g_footprint footprint_words;
    Obs.Gauge.set g_merging merging_factor
  end

let profile ?(shadow = Engine.Perfect) ?(skip = false) ?(lifetime = true)
    ?seed ?(scramble_unlocked = false) ?cancelled
    (prog : Mil.Ast.program) : result =
  Obs.Span.with_ ~phase:"profile" @@ fun () ->
  (* The run's loop stacks: garbage once the profile is built, since
     dependence records carry carrier lines, not stack ids. *)
  let lstacks = Trace.Intern.Lstack.create () in
  let engine = Engine.create ~skip ~lifetime ~lstacks shadow in
  let petb = Pet.create_builder () in
  let on_access ~kind ~addr ~var ~line ~thread ~time ~op ~lstack ~locked =
    Engine.feed_fields engine ~kind ~addr ~var ~line ~thread ~time ~op ~lstack
      ~locked;
    Pet.feed_access_line petb ~line
  in
  let emit r =
    (match r with
    | Trace.Event.Dealloc { addrs } -> Engine.feed_dealloc engine addrs
    | _ -> ());
    Pet.feed_region petb r
  in
  ignore
    (Mil.Interp.run ?seed ~lstacks ~scramble_unlocked ?cancelled ~emit
       ~on_access prog);
  let pet = Pet.finish petb in
  let deps = Engine.deps engine in
  let accesses = Engine.processed engine in
  let r =
    { deps;
      pet;
      races = Engine.races engine;
      accesses;
      skip_stats = Engine.skip_stats engine;
      footprint_words = Engine.word_footprint engine;
      merging_factor = Dep.Set_.merging_factor deps;
      redistributions = 0;
      per_worker = [| accesses |] }
  in
  publish ~accesses:r.accesses ~deps ~footprint_words:r.footprint_words
    ~merging_factor:r.merging_factor ~lstacks;
  Engine.observe engine;
  r

(* Convenience: render the profile in the paper's text format. *)
let report ?(threads = false) (r : result) : string =
  Report.render ~threads ~control:(Report.control_of_pet r.pet) r.deps
