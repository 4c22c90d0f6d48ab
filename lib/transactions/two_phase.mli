(** Strict two-phase locking — "most database products seem to have
    adopted the simplest solutions [GR] (two-phase locking, …)" (§6).

    Reads take shared locks, writes exclusive locks; every lock is held
    until commit or abort (strictness), which makes the output both
    conflict-serializable and strict (property-tested).  Deadlocks are
    possible; the simulation driver resolves them by victim abort. *)

val create : unit -> Protocol.t
(** A fresh instance with an empty lock table; it detects no deadlock
    itself ({!Simulation.run} aborts a victim). *)

val create_wait_die : unit -> Protocol.t
(** Strict 2PL with wait–die deadlock {e prevention}: on a lock conflict
    an older transaction waits, a younger one dies (restarts with its
    original priority, so it cannot starve).  Trades the deadlock
    detector for extra restarts — the benchmark's deadlock column drops
    to zero while the restart column grows. *)
