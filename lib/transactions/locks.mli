(** A shared/exclusive lock table. *)

type mode = Shared | Exclusive

type t
(** The table: for each item, the transactions holding a lock on it
    and their modes. *)

val create : unit -> t
(** An empty table. *)

val acquire : t -> txn:Schedule.txn -> item:Schedule.item -> mode -> bool
(** [true] when granted (including re-grants and S→X upgrades by a sole
    holder); [false] when the request must wait.  Polling model: a denied
    request leaves no queue entry — callers simply retry. *)

val release_all : t -> txn:Schedule.txn -> unit
(** Release every lock the transaction holds. *)

val holders : t -> item:Schedule.item -> (Schedule.txn * mode) list
(** Who holds a lock on the item, and in which mode. *)

val held_items : t -> txn:Schedule.txn -> Schedule.item list
(** The items the transaction holds a lock on, sorted. *)
