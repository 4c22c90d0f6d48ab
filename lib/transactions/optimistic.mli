(** Optimistic (validation-based) concurrency control — the "occasionally
    optimistic methods" of §6 (Kung–Robinson backward validation).

    Transactions execute without any synchronization, buffering writes;
    at commit, a transaction validates that no transaction that committed
    after it started wrote anything it read.  On success the buffered
    writes are installed atomically; on failure the transaction restarts.
    Never blocks; pays with restarts under contention. *)

val create : unit -> Protocol.t
(** A fresh instance, with no committed transaction to validate
    against. *)
