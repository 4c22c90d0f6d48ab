(** The codec of the coordinator's write-ahead log: 2PC protocol
    records in a {!Storage.Log_file}, which owns the file.  The
    coordinator keeps a presumed-abort force discipline — only
    [Decide Commit] must be flushed (the commit point); abort decisions
    and [Forget] records never are, because a transaction the log says
    nothing about is presumed aborted. *)

(** The coordinator's verdict on a transaction. *)
type decision = Commit | Abort

(** The protocol records.  [Begin] names the participant shards (logged
    lazily, when the commit protocol starts); [Vote] records each
    shard's answer to PREPARE; [Decide] is the verdict; [Forget] marks
    that every participant acknowledged the decision, so the
    termination protocol need not consider the transaction again. *)
type record =
  | Begin of { txn : int; shards : int list }
  | Vote of { txn : int; shard : int; yes : bool }
  | Decide of { txn : int; decision : decision }
  | Forget of int

type entry = { off : int; record : record }
(** A scanned record with its byte offset in the file. *)

exception Corrupt of string
(** A structurally impossible payload (the tolerant scans stop at
    damage instead of raising). *)

val frame : record -> string
(** The record's on-disk frame, for {!Storage.Log_file.append}. *)

val valid : string -> int -> int -> bool
(** [valid image off len]: does the payload at [off] decode?  The
    payload check of every scan, {!Storage.Log_file.open_file}'s
    included: the log ends at the first frame it rejects. *)

val read_file : string -> entry list
(** Read-only tolerant scan (the termination protocol's and the
    commit lint's view).  A missing file yields []. *)

val decisions : entry list -> (int, decision) Hashtbl.t
(** Each transaction's first Decide: what the termination protocol
    completes, and what [lint commit] checks the shards against (a
    later, conflicting Decide is 2C005). *)

val decision_to_string : decision -> string
(** ["commit"] / ["abort"]. *)

val record_to_string : record -> string
(** One-line rendering for diagnostics and tests. *)
