(** The common interface of concurrency-control protocols, consumed by the
    {!Simulation} driver.

    A protocol admits, delays, or rejects individual operations, and
    records the history it actually executes (deferred-write protocols
    record writes at install time, so the recorded history is the real
    execution order). *)

(** What a protocol answers to one request. *)
type verdict =
  | Granted  (** the operation executed *)
  | Blocked  (** retry later (lock conflict) *)
  | Rejected  (** the transaction must abort and restart *)

type t = {
  name : string;
  declare : Schedule.txn -> Schedule.item list -> unit;
      (** access-set pre-declaration (used by the tree protocol); called
          once per incarnation before any request *)
  begin_txn : Schedule.txn -> unit;
      (** called at transaction start and at every restart *)
  request : Schedule.txn -> Schedule.action -> verdict;
      (** data operations only (Read/Write) *)
  try_commit : Schedule.txn -> verdict;
      (** [Granted] commits; [Rejected] means validation failed *)
  rollback : Schedule.txn -> unit;
  history : unit -> Schedule.t;  (** executed operations, oldest first *)
}

val recorder : unit -> (Schedule.op -> unit) * (unit -> Schedule.t)
(** A shared helper: an append function and a snapshot function. *)
