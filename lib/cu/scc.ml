(* Tarjan's strongly-connected-components algorithm over adjacency arrays.
   Used to contract cyclically-dependent CUs into single vertices when
   scoring a region's CU graph (§4.3): CUs on a cycle run sequentially. *)

type result = {
  component : int array;   (* node -> component id *)
  components : int list array;  (* component id -> members *)
  count : int;
}

let run (adj : int list array) : result =
  let n = Array.length adj in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = Stack.create () in
  let component = Array.make n (-1) in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  (* Explicit work stack to avoid deep recursion on long chains. *)
  let rec strongconnect v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    Stack.push v stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      adj.(v);
    if lowlink.(v) = index.(v) then begin
      let comp = !next_comp in
      incr next_comp;
      let rec pop () =
        let w = Stack.pop stack in
        on_stack.(w) <- false;
        component.(w) <- comp;
        if w <> v then pop ()
      in
      pop ()
    end
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  let components = Array.make !next_comp [] in
  for v = n - 1 downto 0 do
    components.(component.(v)) <- v :: components.(component.(v))
  done;
  { component; components; count = !next_comp }

(* Condensation: the DAG of components. *)
let condense (adj : int list array) (r : result) : int list array =
  let cadj = Array.make r.count [] in
  Array.iteri
    (fun v ws ->
      List.iter
        (fun w ->
          let cv = r.component.(v) and cw = r.component.(w) in
          if cv <> cw then cadj.(cv) <- cw :: cadj.(cv))
        ws)
    adj;
  Array.map (List.sort_uniq compare) cadj
