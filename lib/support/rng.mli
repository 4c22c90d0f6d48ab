(** Deterministic splittable pseudo-random number generator (splitmix64).

    Every stochastic component in this repository draws randomness through
    this module, so that each experiment is reproducible from a single
    integer seed.  The generator is a mutable state; [split] derives an
    independent stream, which lets concurrent simulations share a seed
    without sharing a sequence. *)

type t
(** A generator's mutable state. *)

val create : int -> t
(** [create seed] makes a fresh generator from [seed]. *)

val split : t -> t
(** [split rng] derives an independent generator and advances [rng]. *)

val copy : t -> t
(** [copy rng] duplicates the current state without advancing it. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int rng bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float rng bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val range : t -> int -> int -> int
(** [range rng lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf rng ~n ~s] samples from a Zipf distribution on [\[0, n)] with
    skew [s] ([s = 0.] is uniform).  Used by workload generators to model
    hot spots. *)

val gaussian : t -> float
(** Standard normal variate (Box–Muller). *)

val exponential : t -> float -> float
(** [exponential rng lambda] samples Exp(lambda). *)
