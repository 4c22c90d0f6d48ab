(* The distributed-protocol lint: cross-log checks over a coordinator
   log and its shard WALs, all scanned read-only.  Where Wal_lint checks
   one log's internal protocol, these passes check the *agreement*
   between logs that two-phase commit is supposed to enforce — the
   checks are exactly the invariants the presumed-abort force discipline
   guarantees under crash faults, so any 2C error on a survivor set is
   either silent disk corruption (lost history) or a protocol bug. *)

module Wal = Storage.Wal
module Coord_log = Distributed.Coord_log

type input = {
  coord : Coord_log.entry list;
  shards : (int * (Wal.kind * int) list) list;
}

let of_base base =
  let n = Distributed.Coordinator.discover base in
  (* a shard log's frames from their headers, no record decoded *)
  let frames k =
    let frames, _, _ =
      Wal.walk_file
        (Storage.Engine.wal_path (Distributed.Coordinator.shard_path base k))
        ~init:[]
        ~f:(fun acc _ kind txn -> (kind, txn) :: acc)
    in
    (k, List.rev frames)
  in
  {
    coord = Coord_log.read_file (Distributed.Coordinator.coord_path base);
    shards = List.init n frames;
  }

(* --- shared projections --------------------------------------------------- *)

(* participants of each coordinator-known (multi-shard) transaction *)
let participants_of input =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun { Coord_log.record; _ } ->
      match record with
      | Coord_log.Begin { txn; shards } ->
          if not (Hashtbl.mem tbl txn) then Hashtbl.replace tbl txn shards
      | _ -> ())
    input.coord;
  tbl

(* per shard: the first terminal record (Commit/Abort) per transaction *)
let outcomes_of frames =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (kind, t) ->
      match kind with
      | (`Commit | `Abort) as o ->
          if not (Hashtbl.mem tbl t) then Hashtbl.replace tbl t o
      | `Begin | `Write | `Prepare | `Checkpoint -> ())
    frames;
  tbl

let sorted_txns tbl =
  Hashtbl.fold (fun t _ acc -> t :: acc) tbl [] |> List.sort_uniq Int.compare

(* --- 2C001 / 2C005 — the coordinator log's own coherence ------------------ *)

let decide_pass input =
  let participants = participants_of input in
  let votes = Hashtbl.create 8 in
  List.iter
    (fun { Coord_log.record; _ } ->
      match record with
      | Coord_log.Vote { txn; shard; yes } ->
          if yes then Hashtbl.replace votes (txn, shard) ()
      | _ -> ())
    input.coord;
  let first_decision = Hashtbl.create 8 in
  let diags = ref [] in
  List.iteri
    (fun i { Coord_log.record; _ } ->
      match record with
      | Coord_log.Decide { txn; decision } -> (
          (match Hashtbl.find_opt first_decision txn with
          | Some d when d <> decision ->
              diags :=
                Diagnostic.error ~loc:i
                  ~subject:(Coord_log.record_to_string record) "2C005"
                  (Printf.sprintf
                     "conflicting decisions: transaction %d was already \
                      decided %s, now decided %s"
                     txn
                     (Coord_log.decision_to_string d)
                     (Coord_log.decision_to_string decision))
                :: !diags
          | Some _ -> ()
          | None -> Hashtbl.replace first_decision txn decision);
          if decision = Coord_log.Commit then
            match Hashtbl.find_opt participants txn with
            | None ->
                diags :=
                  Diagnostic.error ~loc:i
                    ~subject:(Coord_log.record_to_string record) "2C001"
                    (Printf.sprintf
                       "decide(commit) for transaction %d without a Begin \
                        naming its participants"
                       txn)
                  :: !diags
            | Some shards ->
                let missing =
                  List.filter
                    (fun k -> not (Hashtbl.mem votes (txn, k)))
                    shards
                in
                if missing <> [] then
                  diags :=
                    Diagnostic.error ~loc:i
                      ~subject:(Coord_log.record_to_string record) "2C001"
                      (Printf.sprintf
                         "decide(commit) for transaction %d without a \
                          yes-vote from every participant (missing shard%s \
                          %s)"
                         txn
                         (if List.length missing = 1 then "" else "s")
                         (String.concat ", " (List.map string_of_int missing)))
                    :: !diags)
      | _ -> ())
    input.coord;
  List.rev !diags

(* --- 2C002 — prepared-forever shards -------------------------------------- *)

let prepared_pass input =
  let decisions = Coord_log.decisions input.coord in
  List.concat_map
    (fun (k, frames) ->
      List.map
        (fun txn ->
          let tail =
            match Hashtbl.find_opt decisions txn with
            | Some Coord_log.Commit ->
                "the coordinator decided commit; restart resolution will \
                 complete it"
            | Some Coord_log.Abort ->
                "the coordinator decided abort; restart recovery will undo it"
            | None ->
                "no surviving decision; restart recovery will presume abort"
          in
          Diagnostic.warning
            ~subject:(Printf.sprintf "shard %d: prepare(%d)" k txn)
            "2C002"
            (Printf.sprintf
               "shard %d leaves transaction %d prepared (in doubt) — %s" k txn
               tail))
        (Distributed.Coordinator.in_doubt_txns frames))
    input.shards

(* --- 2C003 — a commit with no surviving prepare ---------------------------- *)

let provenance_pass input =
  let participants = participants_of input in
  List.concat_map
    (fun (k, frames) ->
      let prepared = Hashtbl.create 8 in
      let diags = ref [] in
      List.iteri
        (fun i (kind, t) ->
          match kind with
          | `Prepare -> Hashtbl.replace prepared t ()
          | `Commit ->
              if Hashtbl.mem participants t && not (Hashtbl.mem prepared t)
              then
                diags :=
                  Diagnostic.error ~loc:i
                    ~subject:(Printf.sprintf "shard %d: commit(%d)" k t)
                    "2C003"
                    (Printf.sprintf
                       "shard %d commits distributed transaction %d with no \
                        surviving Prepare — the vote this commit depends on \
                        is gone from the log"
                       k t)
                  :: !diags
          | _ -> ())
        frames;
      List.rev !diags)
    input.shards

(* --- 2C004 — mixed outcomes across shards ---------------------------------- *)

let agreement_pass input =
  let per_txn = Hashtbl.create 8 in
  List.iter
    (fun (k, frames) ->
      let outcomes = outcomes_of frames in
      Hashtbl.iter
        (fun txn o ->
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt per_txn txn)
          in
          Hashtbl.replace per_txn txn ((k, o) :: prev))
        outcomes)
    input.shards;
  List.filter_map
    (fun txn ->
      let outs = List.rev (Hashtbl.find per_txn txn) in
      let committed = List.filter (fun (_, o) -> o = `Commit) outs in
      let aborted = List.filter (fun (_, o) -> o = `Abort) outs in
      if committed <> [] && aborted <> [] then
        let names l = String.concat ", " (List.map (fun (k, _) -> string_of_int k) l) in
        Some
          (Diagnostic.error
             ~subject:(Printf.sprintf "transaction %d" txn)
             "2C004"
             (Printf.sprintf
                "atomicity violation: transaction %d committed on shard%s %s \
                 but aborted on shard%s %s"
                txn
                (if List.length committed = 1 then "" else "s")
                (names committed)
                (if List.length aborted = 1 then "" else "s")
                (names aborted)))
      else None)
    (sorted_txns per_txn)

(* --- 2C006 — forgetting too early ------------------------------------------ *)

let forget_pass input =
  let decisions = Coord_log.decisions input.coord in
  let prepared =
    List.concat_map
      (fun (k, frames) ->
        List.map
          (fun t -> (t, k))
          (Distributed.Coordinator.in_doubt_txns frames))
      input.shards
  in
  let diags = ref [] in
  List.iteri
    (fun i { Coord_log.record; _ } ->
      match record with
      | Coord_log.Forget txn -> (
          (if not (Hashtbl.mem decisions txn) then
             diags :=
               Diagnostic.error ~loc:i
                 ~subject:(Coord_log.record_to_string record) "2C006"
                 (Printf.sprintf
                    "forget(%d) without a surviving decision — the \
                     coordinator forgot a transaction it never decided"
                    txn)
               :: !diags);
          let still_prepared =
            List.filter_map
              (fun (t, k) -> if t = txn then Some k else None)
              prepared
          in
          if still_prepared <> [] then
            diags :=
              Diagnostic.error ~loc:i
                ~subject:(Coord_log.record_to_string record) "2C006"
                (Printf.sprintf
                   "forget(%d) while shard%s %s still hold%s it prepared — \
                    the coordinator forgot before every acknowledgement"
                   txn
                   (if List.length still_prepared = 1 then "" else "s")
                   (String.concat ", " (List.map string_of_int still_prepared))
                   (if List.length still_prepared = 1 then "s" else ""))
              :: !diags)
      | _ -> ())
    input.coord;
  List.rev !diags

let passes =
  [
    Pass.make "2pc-decisions" decide_pass;
    Pass.make "2pc-prepared" prepared_pass;
    Pass.make "2pc-provenance" provenance_pass;
    Pass.make "2pc-agreement" agreement_pass;
    Pass.make "2pc-forget" forget_pass;
  ]

let lint input = Pass.run_all passes input
let lint_base base = lint (of_base base)
