(** The storage engine: pager + buffer pool + binary WAL + ARIES-lite
    recovery behind one transactional facade, plus a persistent
    heap-table layer for relational instances.

    Policies: {e steal} (eviction may flush uncommitted pages, behind the
    WAL barrier), {e no-force} (commit makes only the log durable), and
    {e strict} per-item write locks held to commit/abort — exactly the
    regime {!Transactions.Recovery} models in memory, now against real
    bytes.  Opening a database always runs restart recovery; the
    invariant (crash-matrix-tested) is that after a crash at any I/O the
    reopened store holds exactly the committed transactions' writes in
    log order.

    A clean open and close write nothing: no log record, no fsync, no
    page and no header.  Checkpoints run after a restart that had work
    ({!open_db}), at {!save_table} and {!checkpoint}, and at {!close}
    when something changed since the last one.

    Fault tolerance (see {!Fault} for the taxonomy): CRC-corrupt
    item-store pages are {e quarantined and repaired} by replaying the
    full WAL (which is never truncated), transient I/O errors are
    retried inside {!Pager}/{!Wal}, and a WAL that cannot be flushed
    degrades the engine to {e read-only} ({!Read_only}) instead of
    crashing.  Table chains are not WAL-protected; their corruption
    stays a hard {!Pager.Corrupt}. *)

type t
(** An open database handle. *)

type repair = { quarantined : int list; replayed : int }
(** One quarantine-and-repair event: the page ids abandoned and the
    number of WAL write records replayed to rebuild the item plane. *)

exception Locked of string * int
(** The item is write-locked by another transaction (strictness). *)

exception No_such_transaction of int
(** The transaction id is not active. *)

exception Active_transactions
(** Raised by {!checkpoint} while transactions are running. *)

exception Unknown_table of string
(** No catalog entry under that name. *)

exception Read_only of string
(** The engine has degraded to read-only (an unflushable WAL): writes,
    commits, and new transactions are refused.  The payload names the
    I/O site whose failure triggered the degradation. *)

val open_db :
  ?pool_size:int -> ?crash_after:int -> ?faults:Fault.spec ->
  ?fault:Fault.t ->
  ?metrics:Obs.Registry.t -> ?trace:Obs.Trace.t -> string -> t
(** Open or create the database at [path] (the WAL lives at
    [path ^ ".wal"]).  [crash_after] arms fault injection: that many
    durable I/Os succeed, the next raises {!Fault.Crash} — including
    I/Os issued by recovery itself.  [faults] installs a full fault
    spec (crash budget, torn-write/bit-flip/EIO probabilities, RNG
    seed); [crash_after] overrides its crash budget when both given.
    [fault] supplies the injector itself instead of creating one —
    several engines sharing one injector share one crash budget and
    one RNG stream, which is how the distributed layer crashes "the
    whole process" at its N-th durable I/O regardless of which shard
    (or the coordinator log) issues it.

    The open reads the log once: {!Wal.open_log} walks every frame
    (CRC and structure, no record built), truncates a torn tail, and
    feeds the walk to the recovery analysis, which also yields the next
    transaction id.  Restart recovery ({!Recovery.restart}) then
    decodes records only from the restart point: the last checkpoint,
    or the first record of a transaction still open at the end of the
    log when that comes earlier.
    A corrupt item-store page found during the open is quarantined and
    the item plane rebuilt, before recovery runs, by replaying the
    whole surviving log as the walk read it; a page corrupted by
    recovery's own writes is rebuilt the same way, from that image and
    not from the file, which recovery may have extended.  The open
    checks the item pages by reading their header LSNs through the
    pool; the item directory is built on the first item access
    ({!read}, {!write}, {!abort}, {!items}, {!item_count}, or a restart
    with work).

    After restart the open checkpoints, unless restart was idle: the
    log ends in a checkpoint, no loser is open ({!Recovery.analysis}'s
    [idle]), and the open repaired nothing.  That checkpoint already
    flushed and synced every page before its record was logged, so an
    idle open writes nothing (the torn-tail truncation aside).

    [metrics] is threaded into every layer (pager, pool, WAL, fault
    injector) and receives the engine's own [engine.*] instruments;
    [trace] records [engine.recovery] (when the log holds a record,
    from the walk through the last undo, so it also covers the
    item-chain LSN check and any open-time quarantine repair between the
    walk and redo)/[engine.checkpoint]/
    [engine.commit]/[engine.abort]/[engine.repair] and [wal.flush]
    spans.  Both default to the shared no-ops, costing only integer
    increments on the hot paths. *)

val close : t -> unit
(** Clean shutdown: checkpoint when no transaction is active and
    something changed since the last checkpoint (a record was logged or
    a pool frame is dirty), then close.  A close after an idle open
    that changed nothing writes nothing.  A degraded (read-only) engine
    abandons instead — its pending WAL bytes cannot be made durable,
    and restart recovery repairs from the log. *)

val crash : t -> unit
(** Abandon without flushing anything — simulates the process dying.
    The on-disk state is whatever the WAL and stolen pages got to. *)

val begin_txn : ?id:int -> t -> int
(** Start a transaction (fresh id unless [id] is given); logs Begin. *)

val write : t -> txn:int -> string -> int -> unit
(** Logs (item, before, after) then applies in the pool; raises
    {!Locked} when another transaction holds the item, {!Read_only}
    when the engine is degraded, and [Invalid_argument] when the
    transaction has already prepared (a prepared participant may only
    await its decision). *)

val read : t -> string -> int
(** Current value; absent items read 0. *)

val prepare : t -> txn:int -> unit
(** The participant side of two-phase commit: append [Prepare] and
    flush, making the transaction's writes and its yes-vote durable.
    The transaction stays active — locks held, undo info kept — until
    {!commit} or {!abort} delivers the coordinator's decision, possibly
    only after a restart (the termination protocol).  Idempotent (the
    coordinator retries lost PREPARE messages); raises {!Read_only}
    when the vote cannot be made durable, in which case the shard must
    vote no. *)

val prepared_txns : t -> int list
(** Active transactions whose [Prepare] is durable, sorted. *)

val commit : t -> txn:int -> unit
(** Appends Commit and flushes the WAL — the commit point.  If the
    flush fails past its retries the engine degrades and raises
    {!Read_only}: the transaction is in doubt in this process and
    resolved (aborted) by restart recovery. *)

val abort : t -> txn:int -> unit
(** Undoes the transaction's writes newest-first, logging compensation
    records, then appends Abort. *)

val checkpoint : t -> unit
(** Quiescent checkpoint: write and sync all dirty pages, then log and
    flush Checkpoint.  Raises {!Active_transactions} when transactions
    are running. *)

val lock_holder : t -> string -> int option
(** Which transaction write-locks the item, if any. *)

val active_txns : t -> int list
(** Ids of the currently running transactions, sorted. *)

val items : t -> (string * int) list
(** The committed-visible KV state, sorted, zero values omitted. *)

val item_count : t -> int
(** Number of nonzero committed items. *)

val save_table : t -> string -> Relational.Relation.t -> unit
(** Persist a relation under a name (replacing any previous binding),
    copy-on-write.  The new chain, its fence chain when it spans two or
    more pages ({!Heap.save_relation}), and a new catalog chain naming
    both go into pages nothing the header reaches; a checkpoint makes
    them durable, then one header write switches the catalog root
    ({!Pager.set_catalog_root}) and a pager fsync makes it durable
    before the call returns.  A crash anywhere inside leaves the old
    table or the new one.  The replaced table's pages are reused only
    after the next open; the old catalog chain is free at once. *)

val load_table : t -> string -> Relational.Relation.t
(** Raises {!Unknown_table}.  Unlike the enumeration APIs below this
    also resolves {!reserved} names, which is how the planner reaches
    its bookkeeping tables. *)

val find_table : t -> string -> Relational.Schema.t * int
(** A table's schema and the first page of its chain, for streaming it
    with {!Heap.iter_relation} instead of loading it.  Resolves
    {!reserved} names like {!load_table}; raises {!Unknown_table}. *)

val reserved : string -> bool
(** Whether a table name is reserved for engine-internal state (a
    ["__"] prefix — planner statistics, index definitions).  Reserved
    tables are stored in the ordinary catalog but hidden from
    {!table_names}, {!table_info}, and {!database}. *)

val table_names : t -> string list
(** Catalogued table names in catalog order, {!reserved} names
    omitted. *)

val tables : t -> Heap.table list
(** The catalog entries, {!reserved} names omitted, with their fence
    roots — what a planning context snapshots. *)

val table_info : t -> (string * Relational.Schema.t * int) list
(** (name, schema, first page id) per catalog entry, {!reserved} names
    omitted. *)

val database : t -> Relational.Database.t
(** Load every public table — a {!Relational.Database} instance served
    from disk through the buffer pool. *)

val free_pages : t -> int option
(** Pages below the page count that nothing the header reaches, counted
    by a read-only walk ({!Heap.owned_pages}) of the file through a
    private pool, so the engine's pool and the file are untouched.
    [None] when the walk fails.  What [db status] prints. *)

val pool : t -> Buffer_pool.t
(** The engine's buffer pool (tests and benches poke at it directly). *)

val pager : t -> Pager.t
(** The underlying pager. *)

val wal : t -> Wal.t
(** The write-ahead log handle. *)

val fault : t -> Fault.t
(** The fault injector every layer of this engine consults. *)

val metrics : t -> Obs.Registry.t
(** The registry passed to {!open_db} ({!Obs.Registry.noop} when none
    was) — layers above the engine register their instruments here. *)

val trace : t -> Obs.Trace.t
(** The span recorder passed to {!open_db}. *)

val last_recovery : t -> Recovery.outcome option
(** The outcome of the restart recovery this open performed, if the log
    was non-empty. *)

val read_only : t -> bool
(** Has the engine degraded to read-only? *)

val degraded_reason : t -> string option
(** Why the engine degraded to read-only (the failing I/O site). *)

val repairs : t -> int
(** Quarantine-and-repair events since open (including one performed by
    the open itself, if the on-disk item plane was corrupt). *)

val last_repair : t -> repair option
(** Details of the most recent repair event. *)

val io_retries : t -> int
(** Transient-EIO retries (pager + WAL) that eventually succeeded. *)

val next_txn : t -> int
(** The id {!begin_txn} assigns next: after the open, one past the
    largest transaction id the log names (1 for an empty log). *)

val repair_needed : horizon:int -> string -> bool
(** Would {!open_db} quarantine and rebuild the item store of the
    database at this path, given a log whose clean length is [horizon]?
    The open's own test — an item page that fails its CRC, or one whose
    LSN lies past the log's end — run on a private pager that is then
    abandoned, so it writes nothing.  [false] for a missing or empty
    file (a fresh database); a damaged header raises
    {!Pager.Corrupt}, as the open would. *)

val wal_path : string -> string
(** [wal_path db_path] is where {!open_db} keeps the log:
    [db_path ^ ".wal"]. *)
