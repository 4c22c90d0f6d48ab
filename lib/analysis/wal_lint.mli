(** The offline WAL verifier behind [dbmeta lint wal]: protocol checks
    over a read-only scan ({!Storage.Wal.report}) of a binary log,
    runnable against a log owned by a crashed process.

    Diagnostic codes:
    - [WL001] (error) non-monotone LSN — a record's byte offset does not
      advance past its predecessor's
    - [WL002] (error) overlapping frames — a record starts inside the
      previous record's frame
    - [WL003] (error) Write/Commit/Abort without a live Begin
    - [WL004] (error) duplicate Begin, or activity after termination
    - [WL005] (error) compensation record outside an abort/recovery
      episode — no matching forward write, or the transaction later
      commits
    - [WL006] (error) checkpoint contradicts the live-transaction set
      (this engine's checkpoints are quiescent)
    - [WL007] (warning) torn tail — bytes after the last valid frame
      that never resync; the tolerated crash artifact the next open
      truncates
    - [WL008] (error) mid-log corruption — an invalid frame with intact,
      decodable frames after it; a tolerant open would silently lose the
      suffix, or, when the frame lies before the anchor of the database
      beside the log and every frame after the anchor is whole, only a
      walk from LSN 0 would
    - [WL009] (info) a transaction is still live when the log ends —
      normal after a crash; restart recovery resolves it as a loser
    - [WL010] (error) broken before-image chain — a write's before-image
      disagrees with the item's last logged after-image (repeating
      history made impossible)

    The engine-correctness contract, QCheck-tested: any log produced by
    {!Storage.Engine} (and, for crash-only fault specs, any survivor log
    it leaves behind) lints with {e zero errors}, while a single mutated
    byte in the durable prefix yields at least one WL diagnostic. *)

type anchor = { at : int; clean_to : int }
(** The usable anchor ({!Storage.Engine.log_anchor}'s LSN) of the
    database a log belongs to, and the offset where the open's walk from
    it stops: the log's length when every frame after the anchor is
    whole. *)

type input = { report : Storage.Wal.report; anchor : anchor option }
(** The read-only scan the passes interpret, and the anchor, if any:
    WL008 words damage before it as damage the open walks over when the
    frames from the anchor walk clean to the log's end. *)

val passes : input Pass.t list
(** The WL pass suite, for {!Pass.run_all} / {!Pass.drive}. *)

val lint : ?anchor:anchor -> Storage.Wal.report -> Diagnostic.t list
(** Runs every pass over a scan report and returns sorted diagnostics. *)

val input_of_file : string -> input
(** {!Storage.Wal.scan_report} of the log at a path (a missing file is
    empty), and, for a path DB.wal, the anchor of the database DB beside
    it.  The log is read, never truncated or repaired, and the
    database's header is read; nothing is written. *)

val lint_file : string -> Diagnostic.t list
(** {!lint} over {!input_of_file}. *)

val lint_entries : Storage.Wal.entry list -> Diagnostic.t list
(** {!lint} over a synthetic damage-free report built from the entries
    (for tests and for auditing an in-memory log). *)
