(* The offline WAL verifier: protocol checks over a read-only scan of a
   binary log (Storage.Wal.report).  The engine's logging discipline —
   frame integrity, transaction bracketing, compensation episodes,
   quiescent checkpoints, the before-image chain — is small enough to
   state exactly, so any engine-produced log must lint with zero errors
   and any seeded corruption must surface.  Tolerated crash damage (a
   torn tail) is a warning; damage the tolerant open would silently
   amplify into data loss (mid-log corruption with intact frames after
   it) is an error. *)

module Wal = Storage.Wal

type anchor = { at : int; clean_to : int }
type input = { report : Wal.report; anchor : anchor option }

let subject_of entry =
  Printf.sprintf "lsn %d: %s" entry.Wal.lsn (Wal.record_to_string entry.Wal.record)

let frame_length entry = String.length (Wal.frame_of_record entry.Wal.record)

(* WL001/WL002 — LSNs must advance, and by at least the previous frame's
   length: a record's LSN is its byte offset, so anything else means the
   entry list does not describe a physically possible file. *)
let framing_pass (r : Wal.report) =
  let diags = ref [] in
  let prev = ref None in
  List.iteri
    (fun i entry ->
      (match !prev with
      | Some p when entry.Wal.lsn <= p.Wal.lsn ->
          diags :=
            Diagnostic.error ~loc:i ~subject:(subject_of entry) "WL001"
              (Printf.sprintf
                 "non-monotone LSN: record at offset %d follows one at \
                  offset %d"
                 entry.Wal.lsn p.Wal.lsn)
            :: !diags
      | Some p when entry.Wal.lsn < p.Wal.lsn + frame_length p ->
          diags :=
            Diagnostic.error ~loc:i ~subject:(subject_of entry) "WL002"
              (Printf.sprintf
                 "overlapping frames: record at offset %d starts inside the \
                  %d-byte frame at offset %d"
                 entry.Wal.lsn (frame_length p) p.Wal.lsn)
            :: !diags
      | _ -> ());
      prev := Some entry)
    r.Wal.records;
  List.rev !diags

(* WL007/WL008 — bytes after the last valid frame.  Without a resync
   point this is the torn tail every crash leaves (tolerated: the next
   open truncates it); with one, intact history follows the damage, and
   the tolerant open would silently discard it — data loss.  Damage
   before the anchor of the database beside the log is damage at rest
   that the open walks over: only a walk from LSN 0 would cut there.
   The open keeps every byte only when the frames from the anchor walk
   clean to the log's end.  Damage after the anchor too (a later crash's
   torn tail, a second bad frame) is cut there, and a repair that cut
   may force starts again from LSN 0, so that log keeps the plain
   wording. *)
let damage_pass { report = r; anchor } =
  if r.Wal.clean_bytes >= r.Wal.total_bytes then []
  else
    let tail = r.Wal.total_bytes - r.Wal.clean_bytes in
    match r.Wal.resync with
    | None ->
        [
          Diagnostic.warning ~loc:(List.length r.Wal.records) "WL007"
            (Printf.sprintf
               "torn tail: %d byte(s) after the last valid frame at offset \
                %d do not form a record — tolerated crash damage; the next \
                open truncates it"
               tail r.Wal.clean_bytes);
        ]
    | Some { Wal.resync_at; resync_records } ->
        let fate =
          match anchor with
          | Some { at; clean_to }
            when at > r.Wal.clean_bytes && clean_to >= r.Wal.total_bytes ->
              Printf.sprintf
                "the damage lies before the anchor at %d: the open walks from \
                 the anchor and keeps every byte; only a walk from LSN 0 would \
                 cut the %d-byte suffix"
                at tail
          | _ -> Printf.sprintf "a tolerant open would silently lose the %d-byte suffix" tail
        in
        [
          Diagnostic.error ~loc:(List.length r.Wal.records)
            ~subject:
              (Printf.sprintf "%d decodable record(s) resume at offset %d"
                 (List.length resync_records) resync_at)
            "WL008"
            (Printf.sprintf
               "mid-log corruption: the frame at offset %d is invalid but \
                intact frames resume at offset %d — %s"
               r.Wal.clean_bytes resync_at fate);
        ]

type fate = Live | Committed | Aborted

(* WL003/WL004/WL009 — transaction bracketing: every Write/Commit/Abort
   needs a live Begin, no id begins or terminates twice, and whoever is
   still live when the log ends is a loser for recovery to resolve
   (informational: that is the normal after-crash state). *)
let bracket_pass (r : Wal.report) =
  let state : (int, fate) Hashtbl.t = Hashtbl.create 8 in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let require_live i entry t what =
    match Hashtbl.find_opt state t with
    | Some Live -> true
    | Some _ ->
        emit
          (Diagnostic.error ~loc:i ~subject:(subject_of entry) "WL004"
             (Printf.sprintf
                "transaction %d %s after it already terminated" t what));
        false
    | None ->
        emit
          (Diagnostic.error ~loc:i ~subject:(subject_of entry) "WL003"
             (Printf.sprintf
                "transaction %d %s without a live Begin" t what));
        false
  in
  List.iteri
    (fun i entry ->
      match entry.Wal.record with
      | Wal.Begin t -> (
          match Hashtbl.find_opt state t with
          | None -> Hashtbl.replace state t Live
          | Some _ ->
              emit
                (Diagnostic.error ~loc:i ~subject:(subject_of entry) "WL004"
                   (Printf.sprintf
                      "duplicate Begin: transaction id %d was already used"
                      t)))
      | Wal.Write { txn; compensation; _ } ->
          ignore
            (require_live i entry txn
               (if compensation then "logs a compensation write"
                else "writes")
              : bool)
      | Wal.Commit t ->
          if require_live i entry t "commits" then
            Hashtbl.replace state t Committed
      | Wal.Abort t ->
          if require_live i entry t "aborts" then
            Hashtbl.replace state t Aborted
      | Wal.Prepare t ->
          (* a prepared txn is still live: only a Commit/Abort ends it *)
          ignore (require_live i entry t "prepares" : bool)
      | Wal.Checkpoint -> ())
    r.Wal.records;
  let live =
    Hashtbl.fold (fun t f acc -> if f = Live then t :: acc else acc) state []
    |> List.sort Int.compare
  in
  List.iter
    (fun t ->
      emit
        (Diagnostic.info "WL009"
           (Printf.sprintf
              "transaction %d is still live when the log ends — restart \
               recovery will resolve it as a loser"
              t)))
    live;
  List.rev !diags

(* WL005 — compensation records belong to abort/recovery episodes: a CLR
   must undo a write this transaction actually logged, and the
   transaction must end in Abort (or the log's end), never Commit. *)
let compensation_pass (r : Wal.report) =
  let commits =
    List.filter_map
      (fun e -> match e.Wal.record with Wal.Commit t -> Some t | _ -> None)
      r.Wal.records
  in
  let written : (int * string, unit) Hashtbl.t = Hashtbl.create 16 in
  let diags = ref [] in
  List.iteri
    (fun i entry ->
      match entry.Wal.record with
      | Wal.Write { txn; item; compensation = false; _ } ->
          Hashtbl.replace written (txn, item) ()
      | Wal.Write { txn; item; compensation = true; _ } ->
          if not (Hashtbl.mem written (txn, item)) then
            diags :=
              Diagnostic.error ~loc:i ~subject:(subject_of entry) "WL005"
                (Printf.sprintf
                   "compensation outside an abort episode: transaction %d \
                    never logged a write to %s, so there is nothing to undo"
                   txn item)
              :: !diags
          else if List.mem txn commits then
            diags :=
              Diagnostic.error ~loc:i ~subject:(subject_of entry) "WL005"
                (Printf.sprintf
                   "compensation outside an abort episode: transaction %d \
                    logs a compensation write but later commits"
                   txn)
              :: !diags
      | _ -> ())
    r.Wal.records;
  List.rev !diags

(* WL006 — checkpoints are quiescent in this engine: one taken while
   transactions are live contradicts the live-transaction set and would
   let redo start too late. *)
let checkpoint_pass (r : Wal.report) =
  let live : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let diags = ref [] in
  List.iteri
    (fun i entry ->
      match entry.Wal.record with
      | Wal.Begin t -> Hashtbl.replace live t ()
      | Wal.Commit t | Wal.Abort t -> Hashtbl.remove live t
      | Wal.Write _ | Wal.Prepare _ -> ()
      | Wal.Checkpoint ->
          if Hashtbl.length live > 0 then
            let txns =
              Hashtbl.fold (fun t () acc -> t :: acc) live []
              |> List.sort Int.compare |> List.map string_of_int
              |> String.concat ", "
            in
            diags :=
              Diagnostic.error ~loc:i ~subject:(subject_of entry) "WL006"
                (Printf.sprintf
                   "checkpoint contradicts the live-transaction set: \
                    transaction(s) {%s} are still running at a quiescent \
                    checkpoint"
                   txns)
              :: !diags)
    r.Wal.records;
  List.rev !diags

(* WL010 — the before-image chain: repeating history means every write's
   before-image equals the item's last logged after-image (0 for a fresh
   item), compensation writes included.  A broken chain is a write that
   was logged against state the log cannot account for. *)
let chain_pass (r : Wal.report) =
  let last : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let diags = ref [] in
  List.iteri
    (fun i entry ->
      match entry.Wal.record with
      | Wal.Write { item; before; after; _ } ->
          let expected =
            Option.value ~default:0 (Hashtbl.find_opt last item)
          in
          if before <> expected then
            diags :=
              Diagnostic.error ~loc:i ~subject:(subject_of entry) "WL010"
                (Printf.sprintf
                   "broken before-image chain: the write claims %s was %d \
                    but the log last left it at %d"
                   item before expected)
              :: !diags;
          Hashtbl.replace last item after
      | _ -> ())
    r.Wal.records;
  List.rev !diags

let passes : input Pass.t list =
  let of_report name pass = Pass.adapt (fun i -> i.report) (Pass.make name pass) in
  [
    of_report "framing" framing_pass;
    Pass.make "damage" damage_pass;
    of_report "transaction-bracketing" bracket_pass;
    of_report "compensation-episodes" compensation_pass;
    of_report "quiescent-checkpoints" checkpoint_pass;
    of_report "before-image-chain" chain_pass;
  ]

let lint ?anchor report = Pass.run_all passes { report; anchor }

(* The database a log at DB.wal belongs to, and its usable anchor; the
   header is read, nothing is written. *)
let anchor_beside path =
  if Filename.check_suffix path ".wal" then
    Option.map fst (Storage.Engine.log_anchor (Filename.chop_suffix path ".wal"))
  else None

(* The log is read once: the report scans it from LSN 0, and the open's
   walk from the anchor finds where that walk would stop. *)
let input_of_file path =
  let image = if Sys.file_exists path then Support.Io.read_file path else "" in
  let n = String.length image in
  let anchor =
    match anchor_beside path with
    | Some at when at <= n ->
        let (), clean_to =
          Wal.walk ~base:at (String.sub image at (n - at)) ~init:() ~f:(fun () _ _ _ -> ())
        in
        Some { at; clean_to }
    | _ -> None
  in
  { report = Wal.scan_report image; anchor }
let lint_file path = Pass.run_all passes (input_of_file path)

let lint_entries records =
  let total =
    List.fold_left
      (fun acc e -> max acc (e.Wal.lsn + frame_length e))
      0 records
  in
  lint
    { Wal.records; clean_bytes = total; total_bytes = total; resync = None }
