(** What the three shadow memories share, and the Eq. 2.2 false-positive
    predictor.

    Every shadow memory records, per address, the last read and the last
    write access. The backends ({!Signature}, {!Perfect}, {!Two_level}) are
    resolvers: each maps an address to the base of its (read, write) slot
    pair in a flat off-heap {!Store}, and the caller reads and writes the
    slots there in place. *)

val predicted_fpr : slots:int -> addresses:int -> float
(** Equation 2.2: the probability that a given slot is occupied after
    inserting [addresses] distinct addresses into [slots] slots,
    [1 - (1 - 1/m)^n]. *)
