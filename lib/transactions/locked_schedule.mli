(** Schedules annotated with explicit lock and unlock operations, for
    lock-discipline analysis (2PL phase rule, unlocked access).

    The concrete syntax extends {!Schedule.of_string}: [sl1(x)] /
    [xl1(x)] acquire a shared / exclusive lock ([l1(x)] is an alias for
    exclusive), [u1(x)] releases, and the plain [r1(x) w1(x) c1 a1]
    tokens keep their meaning. *)

(** One step of a locked schedule: a lock request in a mode, a
    release, or an ordinary schedule action. *)
type action =
  | Lock of Locks.mode * Schedule.item
  | Unlock of Schedule.item
  | Op of Schedule.action

type op = { txn : Schedule.txn; action : action }
(** One step by one transaction. *)

type t = op list
(** Steps in temporal order. *)

val sl : Schedule.txn -> Schedule.item -> op
(** [sl t x]: transaction [t] takes a shared lock on [x]. *)

val xl : Schedule.txn -> Schedule.item -> op
(** [xl t x]: transaction [t] takes an exclusive lock on [x]. *)

val u : Schedule.txn -> Schedule.item -> op
(** [u t x]: transaction [t] releases its lock on [x]. *)

val op : Schedule.op -> op
(** A plain schedule operation, as a step that touches no lock. *)

val of_string : string -> t
(** Raises [Invalid_argument] on malformed tokens. *)

val op_to_string : op -> string
(** One step in the concrete syntax of {!of_string}. *)

val to_string : t -> string
(** The schedule in the concrete syntax of {!of_string}, steps
    separated by spaces. *)

val to_schedule : t -> Schedule.t
(** Erase the lock operations, keeping reads/writes/terminations. *)

val has_lock_ops : t -> bool
(** Does the schedule hold a lock or unlock step? *)

val txns : t -> Schedule.txn list
(** The transactions that take a step, sorted, without duplicates. *)
