(* Tests for shadow memories: signature semantics, collisions, lifetime
   removal, the perfect baseline (growth, removal churn, its memory bound),
   slot packing, and the Eq. 2.2 FPR predictor. *)

module Sig = Sigmem.Signature
module Perf = Sigmem.Perfect
module Store = Sigmem.Store

(* A backend as these tests drive it through the resolver API: [locate]
   resolves an address to its pair's base and the store holding the pair,
   and [before_store] is the bookkeeping a writer owes the backend (the
   signature's occupancy rule). The assertions below read slots in place,
   exactly as the engine does. *)
type 's backend = {
  create : unit -> 's;
  locate : 's -> int -> Store.t * int;
  before_store : 's -> int -> var:int -> unit;
}

let bsig slots =
  { create = (fun () -> Sig.create ~slots);
    locate = (fun s addr -> let b = Sig.resolve s addr in (s.Sig.store, b));
    before_store = Sig.count_store }

let bperf =
  { create = Perf.create;
    locate = (fun p addr -> let b = Perf.resolve p addr in (p.Perf.data, b));
    before_store = (fun _ _ ~var:_ -> ()) }

let var_v = Trace.Intern.Sym.intern "v"

(* Store an access at [line] as [addr]'s last read or write. *)
let store_line be s ~write ~addr line =
  let st, b = be.locate s addr in
  let base = if write then Store.write_slot b else b in
  be.before_store s base ~var:var_v;
  Store.set st base ~time:(line + 1) ~locked:false ~line ~var:var_v ~thread:0
    ~op:line ~lstack:Trace.Intern.Lstack.empty

let set_read be s ~addr line = store_line be s ~write:false ~addr line
let set_write be s ~addr line = store_line be s ~write:true ~addr line

(* The line of [addr]'s last read or write; [None] for an empty slot. *)
let last be s ~write ~addr =
  let st, b = be.locate s addr in
  let base = if write then Store.write_slot b else b in
  if Store.is_empty st base then None else Some (Store.line st base)

let last_read be s ~addr = last be s ~write:false ~addr
let last_write be s ~addr = last be s ~write:true ~addr

let msig = bsig 64
let check_line = Alcotest.(check (option int))

let test_store_roundtrip () =
  (* Every field survives the packed 6-int slot encoding, read back through
     the accessors the engine reads in place, including the locked bit
     sharing a word with the timestamp. *)
  let st = Store.create 4 in
  let var = Trace.Intern.Sym.intern "roundtrip" in
  let b = Store.write_base 2 in
  Alcotest.(check int) "write slot of the pair" b
    (Store.write_slot (Store.read_base 2));
  Alcotest.(check bool) "write slot" true (Store.is_write_slot b);
  Alcotest.(check bool) "read slot" false
    (Store.is_write_slot (Store.read_base 2));
  Store.set st b ~time:987654 ~locked:true ~line:123 ~var ~thread:7 ~op:42
    ~lstack:3;
  Alcotest.(check int) "line" 123 (Store.line st b);
  Alcotest.(check int) "var" var (Store.var st b);
  Alcotest.(check int) "thread" 7 (Store.thread st b);
  Alcotest.(check int) "time" 987654 (Store.time st b);
  Alcotest.(check int) "op" 42 (Store.op st b);
  Alcotest.(check int) "lstack" 3 (Store.lstack st b);
  Alcotest.(check bool) "locked" true (Store.locked st b);
  (* the adjacent read slot of the same pair is untouched *)
  Alcotest.(check bool) "read slot empty" true
    (Store.is_empty st (Store.read_base 2));
  Store.clear_pair st 2;
  Alcotest.(check bool) "cleared" true (Store.is_empty st b)

let test_signature_basic () =
  let s = Sig.create ~slots:64 in
  check_line "initially empty" None (last_read msig s ~addr:5);
  set_read msig s ~addr:5 10;
  check_line "read slot" (Some 10) (last_read msig s ~addr:5);
  check_line "write slot still empty" None (last_write msig s ~addr:5);
  set_write msig s ~addr:5 20;
  check_line "write slot" (Some 20) (last_write msig s ~addr:5);
  Alcotest.(check int) "slots used" 2 (Sig.slots_used s);
  Sig.remove s ~addr:5;
  check_line "removed" None (last_read msig s ~addr:5);
  Alcotest.(check int) "slots used after removal" 0 (Sig.slots_used s)

let test_signature_collision () =
  (* With a single slot every address collides: membership checks see the
     other address's entry — the false-positive mechanism of §2.3.2. *)
  let s = Sig.create ~slots:1 in
  set_write msig s ~addr:1 11;
  check_line "collision visible" (Some 11)
    (last_write msig s ~addr:2);
  (* removal through a colliding address also clears the slot *)
  Sig.remove s ~addr:2;
  check_line "collision removal" None (last_write msig s ~addr:1)

let test_signature_distribution () =
  (* The hash must behave like a random function on dense bump-allocator
     addresses: 512 balls into 1024 bins occupy ~403 bins in expectation
     (1 - (1 - 1/m)^n). Injective low-bit hashing would occupy 512. *)
  let slots = 1024 in
  let seen = Hashtbl.create 256 in
  for a = 0 to 511 do
    Hashtbl.replace seen (Sig.hash_addr a slots) ()
  done;
  let d = Hashtbl.length seen in
  Alcotest.(check bool)
    (Printf.sprintf "occupancy %d near the binomial expectation 403" d)
    true (d > 340 && d < 470)

let test_perfect () =
  let s = Perf.create () in
  set_write bperf s ~addr:1 11;
  set_write bperf s ~addr:1025 12;
  check_line "no collisions ever" (Some 11)
    (last_write bperf s ~addr:1);
  check_line "second addr separate" (Some 12)
    (last_write bperf s ~addr:1025);
  Perf.remove s ~addr:1;
  check_line "removed" None (last_write bperf s ~addr:1);
  check_line "other untouched" (Some 12)
    (last_write bperf s ~addr:1025);
  (* no table can span these: rejected before any slot is touched *)
  List.iter
    (fun addr ->
      Alcotest.check_raises "address out of range"
        (Invalid_argument "Perfect.resolve: address out of range") (fun () ->
          ignore (Perf.resolve s addr)))
    [ -1; max_int ]

let test_perfect_growth () =
  (* Push well past the initial capacity: the address-indexed table must
     grow several times without losing or corrupting any entry. *)
  let s = Perf.create () in
  let n = 10_000 in
  for a = 0 to n - 1 do
    set_write bperf s ~addr:(a * 7) (a land 0xFFFF)
  done;
  Alcotest.(check bool) "grew past initial capacity" true (Perf.capacity s > 1024);
  Alcotest.(check int) "all live" n (Perf.live s);
  let ok = ref true in
  for a = 0 to n - 1 do
    if last_write bperf s ~addr:(a * 7) <> Some (a land 0xFFFF) then
      ok := false
  done;
  Alcotest.(check bool) "every entry intact after rehash" true !ok

(* The table spans the highest address touched, 12 words per address: a
   program holding a 50 000-element global array that writes only its last
   element pays for the whole array, and at most twice that. *)
let test_perfect_spans_heap () =
  let n = 50_000 in
  let prog =
    Helpers.prog_of_main
      ~globals:[ Mil.Builder.garray "a" n ]
      Mil.Builder.[ seti "a" (i (n -$ 1)) (i 7) ]
  in
  let s = Perf.create () in
  let written = ref None in
  let on_access ~kind ~addr ~var ~line ~thread ~time ~op ~lstack ~locked =
    let b = Perf.resolve s addr in
    let b =
      match kind with
      | Trace.Event.Read -> b
      | Trace.Event.Write ->
          written := Some (addr, line);
          Store.write_slot b
    in
    Store.set s.Perf.data b ~time ~locked ~line ~var ~thread ~op ~lstack
  in
  ignore (Mil.Interp.run ~on_access prog);
  let addr, line = Option.get !written in
  Alcotest.(check bool) "write at the array's end" true (addr >= n - 1);
  Alcotest.(check bool)
    (Printf.sprintf "footprint %d within 2 x 12 x (n + 64)"
       (Perf.word_footprint s))
    true
    (Perf.word_footprint s <= 2 * 12 * (n + 64));
  check_line "written slot reads back" (Some line)
    (last_write bperf s ~addr)

let test_perfect_tombstones () =
  (* Insert/remove churn over a fixed working set must not grow the table:
     removal clears the address's pair in place, and the next touch reuses
     it. *)
  let s = Perf.create () in
  for round = 0 to 99 do
    for a = 0 to 99 do
      set_write bperf s ~addr:a round
    done;
    for a = 0 to 99 do
      Perf.remove s ~addr:a
    done
  done;
  Alcotest.(check int) "empty after churn" 0 (Perf.live s);
  Alcotest.(check bool) "capacity stayed small" true (Perf.capacity s <= 2048);
  set_write bperf s ~addr:3 77;
  check_line "usable after churn" (Some 77)
    (last_write bperf s ~addr:3)

let test_fpr_predictor () =
  (* Eq. 2.2: monotone in n, anti-monotone in m, exact at the extremes. *)
  let p = Sig.predicted_fpr in
  Alcotest.(check (float 1e-9)) "n=0" 0.0 (p ~slots:100 ~addresses:0);
  Alcotest.(check bool) "monotone in addresses" true
    (p ~slots:100 ~addresses:50 < p ~slots:100 ~addresses:200);
  Alcotest.(check bool) "anti-monotone in slots" true
    (p ~slots:1000 ~addresses:100 < p ~slots:100 ~addresses:100);
  Alcotest.(check bool) "valid probability" true
    (let v = p ~slots:7 ~addresses:1000 in v >= 0.0 && v <= 1.0)

let test_fpr_predictor_vs_measured () =
  (* Insert n random addresses into m slots; the measured probability that a
     fresh probe hits an occupied slot should be near Eq. 2.2's prediction. *)
  let slots = 256 and n = 128 in
  let s = Sig.create ~slots in
  let rng = ref 123456789 in
  let next () =
    rng := (!rng * 1103515245 + 12345) land 0x3FFFFFFF;
    !rng
  in
  for _ = 1 to n do
    set_write msig s ~addr:(next ()) 1
  done;
  let occupied = float_of_int (Sig.slots_used s) /. float_of_int slots in
  let predicted = Sig.predicted_fpr ~slots ~addresses:n in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.3f within 0.1 of predicted %.3f" occupied predicted)
    true
    (abs_float (occupied -. predicted) < 0.1)

let qcheck_last_write_wins name be =
  let open QCheck in
  Test.make
    ~name:(name ^ " returns the most recent write for an address")
    ~count:200
    (make Gen.(list_size (int_range 1 50) (pair (int_bound 31) (int_bound 1000))))
    (fun writes ->
      (* for the signature: big enough that these few addresses never
         collide; the perfect table holds regardless *)
      let s = be.create () in
      let last = Hashtbl.create 8 in
      List.iter
        (fun (addr, line) ->
          set_write be s ~addr line;
          Hashtbl.replace last addr line)
        writes;
      Hashtbl.fold
        (fun addr line ok ->
          ok && last_write be s ~addr = Some line)
        last true)

let tests =
  [ Alcotest.test_case "store packing roundtrip" `Quick test_store_roundtrip;
    Alcotest.test_case "signature basics" `Quick test_signature_basic;
    Alcotest.test_case "signature collisions" `Quick test_signature_collision;
    Alcotest.test_case "hash distribution" `Quick test_signature_distribution;
    Alcotest.test_case "perfect shadow" `Quick test_perfect;
    Alcotest.test_case "perfect growth" `Quick test_perfect_growth;
    Alcotest.test_case "perfect tombstone churn" `Quick test_perfect_tombstones;
    Alcotest.test_case "perfect shadow spans the heap" `Quick
      test_perfect_spans_heap;
    Alcotest.test_case "Eq 2.2 predictor" `Quick test_fpr_predictor;
    Alcotest.test_case "Eq 2.2 vs measured occupancy" `Quick
      test_fpr_predictor_vs_measured;
    QCheck_alcotest.to_alcotest
      (qcheck_last_write_wins "signature" (bsig 4096));
    QCheck_alcotest.to_alcotest (qcheck_last_write_wins "perfect" bperf) ]
