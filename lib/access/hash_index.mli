(** Extendible hashing — the other classic access method: a directory of
    bucket pointers that doubles on demand, with buckets splitting by one
    more hash bit at a time.  No overflow chains, at most one split per
    insertion burst, O(1) lookups. *)

type 'p t

val create : ?bucket_capacity:int -> unit -> 'p t
(** [bucket_capacity] = entries per bucket before a split (default 4). *)

val insert : 'p t -> Relational.Value.t -> 'p -> unit
(** Duplicate keys accumulate payloads, like the B+tree. *)

val find : 'p t -> Relational.Value.t -> 'p list
(** All payloads under the key, oldest first; [] when absent. *)

val mem : 'p t -> Relational.Value.t -> bool
(** Whether the key has at least one payload. *)

val delete : 'p t -> Relational.Value.t -> bool
(** Removes the key from its bucket (directories never shrink). *)

val global_depth : 'p t -> int
(** The number of hash bits the directory is indexed by. *)

val directory_size : 'p t -> int
(** Directory slots: [2^global_depth]. *)

val bucket_count : 'p t -> int
(** Distinct buckets behind the directory (slots may share one). *)

val cardinality : 'p t -> int
(** Number of distinct keys. *)

val check_invariants : 'p t -> (unit, string) result
(** Directory size = 2^global depth; every key sits in the bucket its
    hash prefix addresses; bucket local depths ≤ global depth; buckets
    shared by exactly 2^(global−local) directory slots. *)
