(** A B+tree over relational values — the "data structures and access
    methods" tradition, which "already had the modest presence they would
    maintain throughout the fourteen years" (§6).

    Keys are {!Relational.Value.t} (single-type per tree, enforced);
    each key maps to the list of payloads inserted under it (duplicates
    allowed, as a secondary index needs).  Leaves are linked for range
    scans.  Deletion is {e lazy} (keys are removed from leaves without
    rebalancing, as real systems like PostgreSQL do): lookups stay
    correct, and the occupancy invariant is only guaranteed right after
    {!of_list}/inserts. *)

type 'payload t
(** A mutable B+tree from {!Relational.Value.t} keys to lists of
    ['payload]s. *)

exception Key_type_clash of string
(** Raised by {!insert} and {!of_list} when a key's type differs from the
    tree's (set by its first key); the message names both types. *)

val create : ?order:int -> unit -> 'p t
(** [order] = maximum keys per node (default 8, minimum 3). *)

val insert : 'p t -> Relational.Value.t -> 'p -> unit
(** Appends a payload under the key.  Raises {!Key_type_clash} if the
    key's type differs from previous keys'. *)

val find : 'p t -> Relational.Value.t -> 'p list
(** All payloads under the key, oldest first; [] when absent. *)

val mem : 'p t -> Relational.Value.t -> bool

val delete : 'p t -> Relational.Value.t -> bool
(** Removes the key and all its payloads (lazy: no rebalancing); [true]
    when something was removed. *)

val range :
  'p t -> lo:Relational.Value.t -> hi:Relational.Value.t ->
  (Relational.Value.t * 'p list) list
(** Keys in [\[lo, hi\]] in order, via the leaf chain. *)

val fold_range :
  ?lo:Relational.Value.t -> ?hi:Relational.Value.t ->
  (Relational.Value.t -> 'p list -> 'a -> 'a) -> 'p t -> 'a -> 'a
(** Fold over keys in [\[lo, hi\]] in order, either bound optional (an
    absent bound is open: the walk starts at the leftmost leaf / runs to
    the end of the leaf chain).  The half-open forms are what the
    planner's index range scans compile [a >= c] / [a <= c] conjuncts
    into. *)

val iter : (Relational.Value.t -> 'p list -> unit) -> 'p t -> unit
(** In key order. *)

val cardinality : 'p t -> int
(** Number of distinct keys. *)

val height : 'p t -> int

val of_list : ?order:int -> (Relational.Value.t * 'p) list -> 'p t
(** Bulk load: the tree that inserting the pairs in list order would
    index (the same keys, each key's payloads in list order), built by
    one stable sort on the key, leaves filled to the order, and internal
    levels built bottom-up.  When the last node of a level would
    underflow, it and its left neighbour share their entries evenly, so
    {!check_invariants} holds, minimum occupancy included.  Raises
    {!Key_type_clash} on the first pair, in list order, whose key's type
    differs from the first key's. *)

val check_invariants : 'p t -> (unit, string) result
(** Sorted keys, separator consistency, balanced leaf depth, and (for
    trees built by insertion only) minimum occupancy. *)

val index_relation :
  ?order:int ->
  Relational.Relation.t ->
  Relational.Schema.attribute ->
  Relational.Tuple.t t
(** A secondary index: key = the attribute's value, payload = the tuple;
    bulk-loaded with {!of_list}. *)

val select_range :
  Relational.Tuple.t t ->
  Relational.Relation.t ->
  lo:Relational.Value.t ->
  hi:Relational.Value.t ->
  Relational.Relation.t
(** Range selection answered from the index; equals the scan-based
    selection (property-tested). *)
