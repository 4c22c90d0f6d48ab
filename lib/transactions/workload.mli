(** Random transaction workloads for the concurrency-control benchmark:
    a contention sweep over database size, transaction length, skew, and
    write ratio. *)

type params = {
  txns : int;
  ops_per_txn : int;
  items : int;  (** database size; items are named x0 … x(items-1) *)
  skew : float;  (** Zipf parameter; 0. = uniform, higher = hotter spots *)
  write_ratio : float;  (** fraction of operations that are writes *)
}

val default : params
(** 8 transactions of 6 operations over 32 items, uniform access, 30%
    writes. *)

val generate : Support.Rng.t -> params -> Simulation.spec array
(** One program per transaction, each of [ops_per_txn] operations on
    items drawn from the Zipf distribution, a write with probability
    [write_ratio]; the same RNG state gives the same workload. *)

val contention_level : params -> float
(** A rough scalar: ops per transaction × transactions / items, scaled by
    skew — used to label benchmark rows. *)
