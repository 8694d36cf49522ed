(* AdaBoost over decision stumps (§5.1, Tables 5.2/5.3): learns to classify
   DOALL loops from the profiler-derived feature vectors, and reports feature
   importance as the weighted error reduction attributable to each feature
   across the ensemble — the paper's Table 5.2 metric. *)

type stump = {
  feature : int;
  threshold : float;
  polarity : bool;  (* true: predict positive when x.(feature) <= threshold *)
}

type model = {
  stumps : (stump * float) list;  (* weak learner, alpha weight *)
  n_features : int;
}

let predict_stump s (x : float array) =
  let le = x.(s.feature) <= s.threshold in
  if s.polarity then le else not le

let predict (m : model) (x : float array) : bool =
  let score =
    List.fold_left
      (fun acc (s, alpha) ->
        acc +. (alpha *. if predict_stump s x then 1.0 else -1.0))
      0.0 m.stumps
  in
  score >= 0.0

(* Best stump for the weighted sample set: scan candidate thresholds per
   feature (midpoints of sorted distinct values). *)
let best_stump ~(xs : float array array) ~(ys : bool array) ~(w : float array)
    ~(n_features : int) : stump * float =
  let n = Array.length xs in
  let best = ref ({ feature = 0; threshold = 0.0; polarity = true }, infinity) in
  for f = 0 to n_features - 1 do
    let values =
      Array.to_list (Array.map (fun x -> x.(f)) xs) |> List.sort_uniq compare
    in
    let thresholds =
      match values with
      | [] -> []
      | first :: _ ->
          (first -. 1.0)
          :: List.map2
               (fun a b -> (a +. b) /. 2.0)
               (List.filteri (fun k _ -> k < List.length values - 1) values)
               (List.tl values)
    in
    List.iter
      (fun thr ->
        List.iter
          (fun pol ->
            let s = { feature = f; threshold = thr; polarity = pol } in
            let err = ref 0.0 in
            for k = 0 to n - 1 do
              if predict_stump s xs.(k) <> ys.(k) then err := !err +. w.(k)
            done;
            if !err < snd !best then best := (s, !err))
          [ true; false ])
      thresholds
  done;
  !best

let train (samples : Features.sample list) : model =
  let xs = Array.of_list (List.map (fun s -> s.Features.x) samples) in
  let ys = Array.of_list (List.map (fun s -> s.Features.y) samples) in
  let n = Array.length xs in
  if n = 0 then { stumps = []; n_features = Features.dim }
  else begin
    let w = Array.make n (1.0 /. float_of_int n) in
    let stumps = ref [] in
    (try
       (* 20 boosting rounds, or fewer once no stump beats chance *)
       for _ = 1 to 20 do
         let s, err = best_stump ~xs ~ys ~w ~n_features:Features.dim in
         let err = max err 1e-10 in
         if err >= 0.5 then raise Exit;
         let alpha = 0.5 *. log ((1.0 -. err) /. err) in
         stumps := (s, alpha) :: !stumps;
         (* reweight *)
         let z = ref 0.0 in
         for k = 0 to n - 1 do
           let correct = predict_stump s xs.(k) = ys.(k) in
           w.(k) <- w.(k) *. exp (if correct then -.alpha else alpha);
           z := !z +. w.(k)
         done;
         for k = 0 to n - 1 do
           w.(k) <- w.(k) /. !z
         done
       done
     with Exit -> ());
    { stumps = List.rev !stumps; n_features = Features.dim }
  end

(* Table 5.2: feature importance = share of total alpha mass (weighted error
   reduction) carried by stumps testing each feature. *)
let feature_importance (m : model) : (string * float) list =
  let totals = Array.make m.n_features 0.0 in
  let sum =
    List.fold_left
      (fun acc (s, alpha) ->
        totals.(s.feature) <- totals.(s.feature) +. alpha;
        acc +. alpha)
      0.0 m.stumps
  in
  List.mapi
    (fun k name -> (name, if sum = 0.0 then 0.0 else totals.(k) /. sum))
    Features.names
  |> List.sort (fun (_, a) (_, b) -> compare b a)

type scores = {
  accuracy : float;
  precision : float;
  recall : float;
  f1 : float;
  n : int;
}

let evaluate (m : model) (samples : Features.sample list) : scores =
  let tp = ref 0 and fp = ref 0 and tn = ref 0 and fn = ref 0 in
  List.iter
    (fun s ->
      match (predict m s.Features.x, s.Features.y) with
      | true, true -> incr tp
      | true, false -> incr fp
      | false, false -> incr tn
      | false, true -> incr fn)
    samples;
  let fi = float_of_int in
  let precision =
    if !tp + !fp = 0 then 1.0 else fi !tp /. fi (!tp + !fp)
  in
  let recall = if !tp + !fn = 0 then 1.0 else fi !tp /. fi (!tp + !fn) in
  { accuracy = fi (!tp + !tn) /. fi (max 1 (!tp + !fp + !tn + !fn));
    precision;
    recall;
    f1 =
      (if precision +. recall = 0.0 then 0.0
       else 2.0 *. precision *. recall /. (precision +. recall));
    n = List.length samples }

(* Deterministic train/test split by hash of the sample tag: about one
   sample in three is held out. *)
let split (samples : Features.sample list) =
  List.partition (fun s -> Hashtbl.hash s.Features.tag mod 3 <> 0) samples
