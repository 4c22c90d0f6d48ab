(** Schedules (histories) of read/write transactions — the raw material of
    concurrency-control theory. *)

type txn = int
(** A transaction id. *)

type item = string
(** A data item, by name. *)

(** What one operation does: read or write an item, or end its
    transaction. *)
type action = Read of item | Write of item | Commit | Abort

type op = { txn : txn; action : action }
(** One operation of one transaction. *)

type t = op list
(** Operations in temporal order. *)

val r : txn -> item -> op
(** [r t x]: transaction [t] reads [x]. *)

val w : txn -> item -> op
(** [w t x]: transaction [t] writes [x]. *)

val c : txn -> op
(** [c t]: transaction [t] commits. *)

val a : txn -> op
(** [a t]: transaction [t] aborts. *)

val of_string : string -> t
(** Compact notation: ["r1(x) w1(x) r2(y) c1 c2"] — rN/wN with the item in
    parentheses, cN / aN for commit and abort.  Raises [Invalid_argument]
    on malformed input. *)

val to_string : t -> string
(** The schedule in the notation of {!of_string}. *)

val txns : t -> txn list
(** Sorted, without duplicates. *)

val committed : t -> txn list
(** The transactions with a commit, sorted, without duplicates. *)

val aborted : t -> txn list
(** The transactions with an abort, sorted, without duplicates. *)

val items : t -> item list
(** The items read or written, sorted, without duplicates. *)

val project : t -> txn -> t
(** Operations of one transaction, in order. *)

val well_formed : t -> bool
(** Each transaction terminates at most once and performs no operation
    after terminating. *)

val committed_projection : t -> t
(** Operations of committed transactions only — the input to
    serializability analysis. *)

val serial : t list -> t
(** Concatenation of transaction programs as a serial schedule. *)

val is_serial : t -> bool
(** No transaction interleaves with another. *)

val conflicting : op -> op -> bool
(** Different transactions, same item, at least one write. *)

val permutations_are_interleavings : t -> t -> bool
(** Do the two schedules contain exactly the same operations per
    transaction, in the same per-transaction order? *)
