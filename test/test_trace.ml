(* Tests for the trace layer: loop-carrier computation and chunks. *)

module Event = Trace.Event
module Chunk = Trace.Chunk

let frame loop_line inst iter = { Event.loop_line; inst; iter }

let carrier_line src snk =
  match Event.carrier ~src ~snk with
  | Some f -> Some f.Event.loop_line
  | None -> None

let test_carrier_basic () =
  (* same iteration of the same loop instance: not carried *)
  Alcotest.(check (option int))
    "same iteration" None
    (carrier_line [ frame 5 1 3 ] [ frame 5 1 3 ]);
  (* different iterations: carried at that loop *)
  Alcotest.(check (option int))
    "different iterations" (Some 5)
    (carrier_line [ frame 5 1 3 ] [ frame 5 1 4 ]);
  (* no common loops: not carried *)
  Alcotest.(check (option int))
    "different instances" None
    (carrier_line [ frame 5 1 3 ] [ frame 5 2 0 ]);
  Alcotest.(check (option int)) "empty stacks" None (carrier_line [] [])

let test_carrier_nested () =
  let outer = frame 2 1 in
  let inner i1 it = { Event.loop_line = 4; inst = i1; iter = it } in
  (* same outer iteration, different inner iterations: carried at inner *)
  Alcotest.(check (option int))
    "carried at inner" (Some 4)
    (carrier_line [ outer 0; inner 7 1 ] [ outer 0; inner 7 2 ]);
  (* different outer iterations (inner instances differ): carried at outer *)
  Alcotest.(check (option int))
    "carried at outer" (Some 2)
    (carrier_line [ outer 0; inner 7 1 ] [ outer 1; inner 8 0 ]);
  (* source outside the loop, sink inside: not loop-carried *)
  Alcotest.(check (option int))
    "entry from outside" None
    (carrier_line [] [ outer 0; inner 7 0 ])

(* Every access field, the kind and the locked flag survive the packing;
   removals interleave with accesses in push order. *)
let test_chunks () =
  let c = Chunk.create ~capacity:4 () in
  Alcotest.(check bool) "empty" true (Chunk.is_empty c);
  let push kind locked k =
    Chunk.push_access c ~kind ~addr:(100 + k) ~var:(200 + k) ~line:(300 + k)
      ~thread:k ~time:(400 + k) ~op:(500 + k) ~lstack:(600 + k) ~locked
  in
  push Event.Read false 1;
  Chunk.push_remove c 77;
  push Event.Write true 2;
  Alcotest.(check int) "length" 3 (Chunk.length c);
  push Event.Read true 3;
  Alcotest.(check bool) "full" true (Chunk.is_full c);
  let seen = ref [] in
  Chunk.iter c
    ~access:(fun ~kind ~addr ~var ~line ~thread ~time ~op ~lstack ~locked ->
      seen :=
        Printf.sprintf "%s %d %d %d %d %d %d %d %b" (Event.kind_to_string kind)
          addr var line thread time op lstack locked
        :: !seen)
    ~remove:(fun addr -> seen := Printf.sprintf "remove %d" addr :: !seen);
  Alcotest.(check (list string))
    "decoded in push order"
    [ "read 101 201 301 1 401 501 601 false"; "remove 77";
      "write 102 202 302 2 402 502 602 true";
      "read 103 203 303 3 403 503 603 true" ]
    (List.rev !seen);
  Chunk.clear c;
  Alcotest.(check bool) "clear empties" true (Chunk.is_empty c);
  Alcotest.(check int) "capacity preserved" 4 (Chunk.capacity c)

let qcheck_carrier_symmetry =
  let open QCheck in
  let frame_gen =
    Gen.(
      map3
        (fun l inst iter -> { Event.loop_line = 1 + (l mod 4); inst = inst mod 3; iter = iter mod 4 })
        (int_bound 10) (int_bound 10) (int_bound 10))
  in
  let stack_gen = Gen.(list_size (int_range 0 3) frame_gen) in
  Test.make ~name:"carrier is at a common loop with differing iterations"
    ~count:300
    (make Gen.(pair stack_gen stack_gen))
    (fun (src, snk) ->
      match Event.carrier ~src ~snk with
      | None -> true
      | Some f ->
          (* The carrying frame is a sink frame under a loop-instance prefix
             both stacks share, and the source frame at its depth has the
             same instance and a different iteration. Matched by depth, not
             by (line, instance): generated stacks may repeat a frame. *)
          let rec check src snk =
            match (src, snk) with
            | a :: src', b :: snk'
              when a.Event.loop_line = b.Event.loop_line
                   && a.Event.inst = b.Event.inst ->
                if b == f then a.Event.iter <> b.Event.iter else check src' snk'
            | _ -> false
          in
          check src snk)

let tests =
  [ Alcotest.test_case "carrier basics" `Quick test_carrier_basic;
    Alcotest.test_case "carrier nesting" `Quick test_carrier_nested;
    Alcotest.test_case "chunks" `Quick test_chunks;
    QCheck_alcotest.to_alcotest qcheck_carrier_symmetry ]
