(* What the three shadow memories share.

   A shadow memory records, per memory address, the last read access and the
   last write access (Algorithm 2). The backends — the approximate
   {!Signature}, the exact {!Perfect} table and the exact paged
   {!Two_level} — are resolvers: each maps an address to the base of its
   (read, write) slot pair in a flat off-heap {!Store}, allocating on first
   touch, and the profiler's engine reads and writes the slots there in
   place. One dynamic access therefore costs one address resolution (hash,
   page lookup or table probe) and no heap allocation. *)

(* Predicted false-positive probability of a signature after inserting [n]
   distinct addresses into [m] slots (Equation 2.2): 1 - (1 - 1/m)^n. *)
let predicted_fpr ~slots ~addresses =
  if slots <= 0 then 1.0
  else 1.0 -. ((1.0 -. (1.0 /. float_of_int slots)) ** float_of_int addresses)
