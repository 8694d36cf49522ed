(* Race-only detection (§2.3.4) over the engine's address-indexed shadow.

   Per access this applies {!Engine.feed_fields}'s rule with skip off: a
   read forms RAW against a non-empty write slot; a write forms WAR against
   a non-empty read slot, and WAW against a non-empty write slot when the
   read slot is empty or older. A dependence is racy when the sink's time
   is below its source slot's. Only racy dependences are built, so the
   racy records and races equal an engine's on the same stream, while the
   common case is a few loads and six stores, all inline. *)

module Event = Trace.Event
module Intern = Trace.Intern
module Store = Sigmem.Store

(* Slot fields at their {!Store} offsets, as in [Engine]. *)
let f_line = 1
let f_var = 2
let f_thread = 3
let f_op = 4
let f_lstack = 5
let wslot = 6
let pair_width = 12
let () = assert (wslot = Store.field_count && pair_width = Store.pair_width)

let[@inline] get (st : Store.t) i = Bigarray.Array1.unsafe_get st i
let[@inline] set (st : Store.t) i v = Bigarray.Array1.unsafe_set st i v

type t = {
  shadow : Sigmem.Perfect.t;
  lstacks : Intern.Lstack.t;
  racy : Dep.Set_.t;
  mutable races : (string * int * int) list;  (* var, line-a, line-b *)
}

let create ~lstacks =
  { shadow = Sigmem.Perfect.create ();
    lstacks;
    racy = Dep.Set_.create ();
    races = [] }

(* A racy dependence of the current access against the source slot at [sb]:
   the record [Engine] would build, and its race entry. Out of line: it runs
   only on a timestamp reversal. *)
let note t dtype (st : Store.t) sb ~var ~line ~thread ~lstack =
  let src_line = get st (sb + f_line) in
  let ccode =
    Intern.Lstack.carrier_code t.lstacks ~src:(get st (sb + f_lstack))
      ~snk:lstack
  in
  Dep.Set_.add t.racy
    { Dep.sink_line = line;
      sink_thread = thread;
      dtype;
      src_line;
      src_thread = get st (sb + f_thread);
      var = Intern.Sym.name (get st (sb + f_var));
      carrier = (if ccode >= 0 then Some ccode else None);
      racy = true };
  let name = Intern.Sym.name var in
  t.races <- (name, src_line, line) :: t.races;
  if Obs.Trace.is_enabled () then Obs.Trace.instant ("race:" ^ name)

let feed_fields t ~kind ~addr ~var ~line ~thread ~time ~op ~lstack ~locked =
  let p = t.shadow in
  let rb =
    if addr >= 0 && addr < p.Sigmem.Perfect.pairs then addr * pair_width
    else Sigmem.Perfect.resolve p addr
  in
  let st = p.Sigmem.Perfect.data in
  let wb = rb + wslot in
  let r_time = get st rb lsr 1 and w_time = get st wb lsr 1 in
  let ab =
    match kind with
    | Event.Read ->
        if time < w_time then
          note t Dep.Raw st wb ~var ~line ~thread ~lstack;
        rb
    | Event.Write ->
        if time < r_time then
          note t Dep.War st rb ~var ~line ~thread ~lstack;
        (* [time < w_time] implies the write slot is not empty. *)
        if time < w_time && (r_time = 0 || r_time < w_time) then
          note t Dep.Waw st wb ~var ~line ~thread ~lstack;
        wb
  in
  set st ab ((time lsl 1) lor Bool.to_int locked);
  set st (ab + f_line) line;
  set st (ab + f_var) var;
  set st (ab + f_thread) thread;
  set st (ab + f_op) op;
  set st (ab + f_lstack) lstack

let feed_dealloc t addrs =
  List.iter
    (fun (base, len, _var) ->
      for addr = base to base + len - 1 do
        Sigmem.Perfect.remove t.shadow ~addr
      done)
    addrs

let races t = List.sort_uniq compare t.races
let racy t = t.racy

let run ?(seed = 42) ?on_print prog =
  let lstacks = Intern.Lstack.create () in
  let t = create ~lstacks in
  let r =
    Mil.Interp.run ~seed ~lstacks ~scramble_unlocked:true
      ~emit:(function
        | Event.Dealloc { addrs } -> feed_dealloc t addrs | _ -> ())
      ~on_access:(feed_fields t) ?on_print prog
  in
  (t, r)
