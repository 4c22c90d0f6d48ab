(* Cross-log agreement for a replication group, from files alone.
   Replication here is physical — a correct replica's log is a byte
   prefix of the primary's — so the checks are mostly comparisons of
   byte strings and offsets: prefix identity (RP001), epoch monotony
   in the ack journal (RP002), journal-vs-log containment (RP003),
   and the snapshot/checkpoint watermark contract (RP004). *)

module Wal = Storage.Wal
module Engine = Storage.Engine
module Repl_meta = Replication.Repl_meta
module D = Diagnostic

type node = {
  id : int;
  path : string;
  node_epoch : int option;
  node_snapshot : int option;
  wal_prefix : string;
  commits : int list;
  last_checkpoint : int option;
}

type input = {
  group : Repl_meta.group option;
  nodes : node list;
  acks : Repl_meta.ack list;
}

(* Each node's log is read once and walked by its frame headers: the
   checks need its clean prefix, the transactions it commits and its
   last checkpoint, and no record is decoded. *)
let of_base base =
  let group = Repl_meta.load_group base in
  let count = Repl_meta.discover base in
  let nodes =
    List.init count (fun id ->
        let path = Repl_meta.node_path base id in
        let image =
          Support.Io.read_span (Engine.wal_path path) ~from:0 ~len:max_int
        in
        let (commits, last_checkpoint), clean =
          Wal.walk image ~init:([], None)
            ~f:(fun (commits, checkpoint) lsn kind txn ->
              match kind with
              | `Commit -> (txn :: commits, checkpoint)
              | `Checkpoint -> (commits, Some lsn)
              | _ -> (commits, checkpoint))
        in
        let node_epoch, node_snapshot =
          match Repl_meta.load_node path with
          | Some (e, s) -> (Some e, Some s)
          | None -> (None, None)
        in
        {
          id;
          path;
          node_epoch;
          node_snapshot;
          wal_prefix = String.sub image 0 clean;
          commits;
          last_checkpoint;
        })
  in
  { group; nodes; acks = Repl_meta.load_acks base }

let find_node input id = List.find_opt (fun n -> n.id = id) input.nodes

let is_prefix ~of_:whole s =
  String.length s <= String.length whole
  && String.equal s (String.sub whole 0 (String.length s))

(* RP001: every node stamped with the current epoch must hold a byte
   prefix of the primary's log; stale-epoch nodes are expected to
   diverge until the snapshot catch-up reaches them. *)
let check_divergence input =
  match input.group with
  | None -> []
  | Some g -> (
      match find_node input g.Repl_meta.primary with
      | None -> []
      | Some primary ->
          List.concat_map
            (fun n ->
              if n.id = g.Repl_meta.primary then []
              else
                let current = n.node_epoch = Some g.Repl_meta.epoch in
                let prefix = is_prefix ~of_:primary.wal_prefix n.wal_prefix in
                if prefix then []
                else if current then
                  [
                    D.error ~loc:n.id "RP001"
                      (Printf.sprintf
                         "node %d is at the current epoch %d but its log \
                          (%d clean bytes) is not a prefix of the \
                          primary's (%d clean bytes) — a diverged replica"
                         n.id g.Repl_meta.epoch
                         (String.length n.wal_prefix)
                         (String.length primary.wal_prefix));
                  ]
                else
                  [
                    D.info ~loc:n.id "RP001"
                      (Printf.sprintf
                         "node %d diverges at stale epoch %s — expected \
                          for a deposed primary; snapshot catch-up heals it"
                         n.id
                         (match n.node_epoch with
                         | Some e -> string_of_int e
                         | None -> "(unstamped)"));
                  ])
            input.nodes)

(* RP002: the ack journal is append-only, so its epochs may never
   regress, and none may exceed the group's — either would mean a
   fenced-off primary kept promising commits. *)
let check_stale_epoch input =
  let group_epoch =
    match input.group with Some g -> Some g.Repl_meta.epoch | None -> None
  in
  let _, diags =
    List.fold_left
      (fun (i, (prev, acc)) (a : Repl_meta.ack) ->
        let acc =
          if a.ack_epoch < prev then
            D.error ~loc:i "RP002"
              (Printf.sprintf
                 "ack journal epoch regresses at entry %d: txn %d acked \
                  under epoch %d after epoch %d — a stale-epoch primary \
                  accepted writes past its fencing"
                 i a.txn a.ack_epoch prev)
            :: acc
          else acc
        in
        let acc =
          match group_epoch with
          | Some ge when a.ack_epoch > ge ->
              D.error ~loc:i "RP002"
                (Printf.sprintf
                   "ack journal entry %d claims epoch %d beyond the \
                    group's epoch %d"
                   i a.ack_epoch ge)
              :: acc
          | _ -> acc
        in
        (i + 1, (max prev a.ack_epoch, acc)))
      (0, (min_int, []))
      input.acks
    |> snd
  in
  List.rev diags

(* RP003: every journaled quorum ack must still be honored by the
   current primary — its Commit present, its watermark within the
   clean log.  This is the "an acked commit is never lost" contract
   made file-checkable. *)
let check_acked_lost input =
  match input.group with
  | None -> []
  | Some g -> (
      match find_node input g.Repl_meta.primary with
      | None -> []
      | Some primary ->
          let clean = String.length primary.wal_prefix in
          List.concat
            (List.mapi
               (fun i (a : Repl_meta.ack) ->
                 if a.lsn > clean then
                   [
                     D.error ~loc:i "RP003"
                       (Printf.sprintf
                          "acked commit lost: txn %d was quorum-acked to \
                           watermark %d but the primary's clean log ends \
                           at %d"
                          a.txn a.lsn clean);
                   ]
                 else if not (List.mem a.txn primary.commits) then
                   [
                     D.error ~loc:i "RP003"
                       (Printf.sprintf
                          "acked commit lost: txn %d is in the ack \
                           journal but has no Commit record in the \
                           primary's log"
                          a.txn);
                   ]
                 else [])
               input.acks))

(* RP004: a node's page image and log must agree about where redo may
   start.  The snapshot watermark may not run ahead of the clean log
   (pages the log cannot explain) and — for replicas — may not lag a
   shipped Checkpoint (a redo start whose pages never arrived). *)
let check_snapshot_gap input =
  let primary_id =
    match input.group with Some g -> Some g.Repl_meta.primary | None -> None
  in
  List.concat_map
    (fun n ->
      let snap = match n.node_snapshot with Some s -> s | None -> 0 in
      let clean = String.length n.wal_prefix in
      let ahead =
        if snap > clean then
          [
            D.error ~loc:n.id "RP004"
              (Printf.sprintf
                 "node %d: snapshot watermark %d runs ahead of its clean \
                  log (%d bytes) — pages without the log that explains \
                  them"
                 n.id snap clean);
          ]
        else []
      in
      let behind =
        if primary_id = Some n.id then []
        else
          match n.last_checkpoint with
          | Some c when snap < c ->
              [
                D.error ~loc:n.id "RP004"
                  (Printf.sprintf
                     "node %d: log holds a Checkpoint at %d beyond its \
                      snapshot watermark %d — redo would trust pages the \
                      node never received"
                     n.id c snap);
              ]
          | _ -> []
      in
      ahead @ behind)
    input.nodes

let passes =
  [
    Pass.make "repl-divergence" check_divergence;
    Pass.make "repl-stale-epoch" check_stale_epoch;
    Pass.make "repl-acked-lost" check_acked_lost;
    Pass.make "repl-snapshot-gap" check_snapshot_gap;
  ]

let lint input = Pass.run_all passes input
let lint_base base = lint (of_base base)
