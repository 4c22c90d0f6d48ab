(* Tests for the WAL-shipping replication stack: metadata codecs, the
   replica's receive discipline (idempotent overlap, gaps, epoch
   fencing, the checkpoint-needs-snapshot rule), judged on the node's
   files through a promoted copy, group streaming and
   quorum accounting, catch-up after lag, deterministic failover with
   the deposed primary rejoining, the RP lint codes on synthetic
   files, and the QCheck sweeps: under seeded crash + message-loss
   faults, quorum-acked commits survive, replicas converge
   byte-identically, and every survivor file lints clean; concurrent
   workloads driven through Storage.Executor heal to the model; and
   the scheduler makes the same decisions on an engine, a sharded
   coordinator and a replication group. *)

module G = Replication.Group
module R = Replication.Replica
module M = Replication.Repl_meta
module RL = Analysis.Replication_lint
module WL = Analysis.Wal_lint
module C = Distributed.Coordinator
module E = Storage.Engine
module F = Storage.Fault
module W = Storage.Wal
module X = Storage.Executor

let tmp_counter = ref 0

let fresh_base () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dbmeta_repl_test_%d_%d.db" (Unix.getpid ()) !tmp_counter)

let cleanup base =
  let rm p = if Sys.file_exists p then Sys.remove p in
  rm (M.group_path base);
  rm (M.acks_path base);
  for k = 0 to 7 do
    let p = M.node_path base k in
    rm p;
    rm (E.wal_path p);
    rm (M.epoch_path p);
    rm (M.epoch_path p ^ ".tmp")
  done

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let frames records = String.concat "" (List.map W.frame_of_record records)

(* What promoting a node would serve: the items of an engine opened on
   a copy of the node's db image and log, so the node keeps its bytes. *)
let promoted_items node =
  let copy = fresh_base () in
  let cp src dst = if Sys.file_exists src then write_file dst (read_file src) in
  cp node copy;
  cp (E.wal_path node) (E.wal_path copy);
  let eng = E.open_db copy in
  let items = E.items eng in
  E.close eng;
  cleanup copy;
  items

let errors diags =
  List.filter (fun d -> d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error) diags
  |> List.map (fun d -> d.Analysis.Diagnostic.code)

(* --- metadata ------------------------------------------------------------ *)

(* Journal acks through one open of the journal, as a group does. *)
let append_acks ?fault base acks =
  let journal = M.open_journal ?fault base in
  List.iter (M.append_ack journal) acks;
  Storage.Log_file.close journal

let test_meta_roundtrip () =
  let base = fresh_base () in
  let g = { M.epoch = 3; primary = 1; nodes = 3; sync = M.Quorum } in
  M.save_group base g;
  Alcotest.(check bool) "group round-trips" true (M.load_group base = Some g);
  Alcotest.(check int) "discover via descriptor" 3 (M.discover base);
  M.save_node (M.node_path base 1) ~epoch:3 ~snapshot_lsn:42;
  Alcotest.(check bool) "node stamp round-trips" true
    (M.load_node (M.node_path base 1) = Some (3, 42));
  append_acks base
    [
      { M.txn = 7; lsn = 100; ack_epoch = 3 };
      { M.txn = 9; lsn = 160; ack_epoch = 3 };
    ];
  Alcotest.(check int) "two acks" 2 (List.length (M.load_acks base));
  Alcotest.(check bool) "ack fields" true
    (List.hd (M.load_acks base) = { M.txn = 7; lsn = 100; ack_epoch = 3 });
  Alcotest.(check bool) "sync mode strings" true
    (M.sync_mode_of_string "async" = Some M.Async
    && M.sync_mode_to_string M.Quorum = "quorum");
  cleanup base

let test_meta_torn_ack_tolerated () =
  let base = fresh_base () in
  append_acks base [ { M.txn = 1; lsn = 10; ack_epoch = 1 } ];
  (* a torn tail: half a frame of garbage after the valid ack *)
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 (M.acks_path base)
  in
  output_string oc "\x01\x02\x03";
  close_out oc;
  Alcotest.(check int) "valid prefix survives" 1
    (List.length (M.load_acks base));
  cleanup base

(* A crash tears an ack append; the next open of the journal cuts the
   torn half frame, so an ack appended after the crash is read back
   after the one before it instead of hiding behind the tear. *)
let test_meta_torn_ack_then_append () =
  let base = fresh_base () in
  let fault = F.create () in
  let journal = M.open_journal ~fault base in
  M.append_ack journal { M.txn = 1; lsn = 10; ack_epoch = 1 };
  let whole = (Unix.stat (M.acks_path base)).Unix.st_size in
  F.arm fault 0;
  (match M.append_ack journal { M.txn = 2; lsn = 20; ack_epoch = 1 } with
  | () -> Alcotest.fail "the armed append did not crash"
  | exception F.Crash site ->
      Alcotest.(check string) "crash site" "ack journal append" site);
  Storage.Log_file.abandon journal;
  Alcotest.(check bool) "half a frame torn onto the journal" true
    ((Unix.stat (M.acks_path base)).Unix.st_size > whole);
  append_acks base [ { M.txn = 3; lsn = 30; ack_epoch = 1 } ];
  Alcotest.(check (list int)) "both acks read back" [ 1; 3 ]
    (List.map (fun a -> a.M.txn) (M.load_acks base));
  cleanup base

(* --- replica receive/redo ------------------------------------------------ *)

let test_replica_receive_and_redo () =
  let base = fresh_base () in
  let f = F.create () in
  let r = R.attach ~fault:f ~node_id:1 ~epoch:1 (M.node_path base 1) in
  let chunk =
    frames
      [
        W.Begin 1;
        W.Write { txn = 1; item = "x"; before = 0; after = 5; compensation = false };
        W.Commit 1;
        W.Begin 2;
        W.Write { txn = 2; item = "y"; before = 0; after = 9; compensation = false };
      ]
  in
  (match R.receive r ~epoch:1 ~start:0 ~chunk with
  | R.Acked n -> Alcotest.(check int) "acked full chunk" (String.length chunk) n
  | _ -> Alcotest.fail "expected Acked");
  Alcotest.(check bool) "only committed writes visible" true
    (promoted_items (R.path r) = [ ("x", 5) ]);
  (* idempotent resend of the same bytes *)
  (match R.receive r ~epoch:1 ~start:0 ~chunk with
  | R.Acked n -> Alcotest.(check int) "same watermark" (String.length chunk) n
  | _ -> Alcotest.fail "resend should ack");
  (* the uncommitted transaction aborts, logging the compensation
     write Engine.abort logs before its Abort; its write never shows *)
  let tail =
    frames
      [
        W.Write { txn = 2; item = "y"; before = 9; after = 0; compensation = true };
        W.Abort 2;
      ]
  in
  (match R.receive r ~epoch:1 ~start:(String.length chunk) ~chunk:tail with
  | R.Acked _ -> ()
  | _ -> Alcotest.fail "tail should ack");
  Alcotest.(check bool) "abort discards pending" true
    (promoted_items (R.path r) = [ ("x", 5) ]);
  (* a chunk starting past the tail reports the gap *)
  (match R.receive r ~epoch:1 ~start:10_000 ~chunk:tail with
  | R.Gap want ->
      Alcotest.(check int) "gap names our tail"
        (String.length chunk + String.length tail)
        want
  | _ -> Alcotest.fail "expected Gap");
  (* stale epochs are fenced off; higher epochs are adopted durably *)
  (match R.receive r ~epoch:5 ~start:(R.durable_lsn r) ~chunk:"" with
  | R.Acked _ -> ()
  | _ -> Alcotest.fail "epoch adoption should ack");
  Alcotest.(check int) "epoch adopted" 5 (R.epoch r);
  (match R.receive r ~epoch:1 ~start:(R.durable_lsn r) ~chunk:"" with
  | R.Stale_epoch -> ()
  | _ -> Alcotest.fail "expected Stale_epoch");
  (* checkpoints may only arrive through the snapshot path *)
  (match
     R.receive r ~epoch:5 ~start:(R.durable_lsn r)
       ~chunk:(frames [ W.Checkpoint ])
   with
  | R.Snapshot_needed -> ()
  | _ -> Alcotest.fail "expected Snapshot_needed");
  (* a re-attach finds the same files, and so the same state *)
  let r2 = R.attach ~fault:f ~node_id:1 ~epoch:1 (M.node_path base 1) in
  Alcotest.(check bool) "reattach replays" true
    (promoted_items (R.path r2) = [ ("x", 5) ]);
  Alcotest.(check int) "reattach keeps epoch" 5 (R.epoch r2);
  cleanup base

(* --- group streaming ----------------------------------------------------- *)

let run_txns g lo hi =
  let acked = ref 0 in
  for t = lo to hi do
    let txn = G.begin_txn g in
    G.write g ~txn (Printf.sprintf "x%d" (t mod 4)) t;
    G.write g ~txn (Printf.sprintf "y%d" (t mod 3)) (t * 10);
    match G.commit g ~txn with G.Acked -> incr acked | G.Local_only -> ()
  done;
  !acked

let check_converged g =
  let primary_items = G.items g in
  let d = Storage.Wal.durable_lsn (E.wal (G.primary g)) in
  let primary_log =
    read_file (E.wal_path (M.node_path (G.base g) (G.primary_id g)))
  in
  List.iter
    (fun k ->
      match G.replica g k with
      | None -> Alcotest.fail "missing replica handle"
      | Some r ->
          Alcotest.(check bool)
            (Printf.sprintf "node %d state matches primary" k)
            true
            (promoted_items (R.path r) = primary_items);
          Alcotest.(check int)
            (Printf.sprintf "node %d durable matches primary" k)
            d (R.durable_lsn r);
          Alcotest.(check bool)
            (Printf.sprintf "node %d log is a prefix of the primary's" k)
            true
            (read_file (E.wal_path (R.path r)) = String.sub primary_log 0 d))
    (G.replica_ids g)

let test_group_streams_and_acks () =
  let base = fresh_base () in
  let g = G.open_group ~replicas:2 ~sync:M.Quorum base in
  let acked = run_txns g 1 6 in
  Alcotest.(check int) "all six commits quorum-acked" 6 acked;
  Alcotest.(check int) "no lag" 0 (G.lag g);
  check_converged g;
  Alcotest.(check int) "acks journaled" 6 (List.length (M.load_acks base));
  G.close g;
  (* after close the final tail (shutdown checkpoint included) shipped:
     every node's log is byte-identical to the primary's *)
  let p = read_file (E.wal_path base) in
  Alcotest.(check bool) "replica 1 byte-identical" true
    (read_file (E.wal_path (M.node_path base 1)) = p);
  Alcotest.(check bool) "replica 2 byte-identical" true
    (read_file (E.wal_path (M.node_path base 2)) = p);
  Alcotest.(check (list string)) "repl lint clean" [] (errors (RL.lint_base base));
  cleanup base

let test_group_reopen_catches_up () =
  let base = fresh_base () in
  let g = G.open_group ~replicas:2 base in
  ignore (run_txns g 1 4 : int);
  G.close g;
  let g = G.open_group base in
  Alcotest.(check int) "nodes rediscovered" 3 (G.node_count g);
  ignore (run_txns g 5 6 : int);
  check_converged g;
  G.close g;
  Alcotest.(check (list string)) "repl lint clean" [] (errors (RL.lint_base base));
  cleanup base

let test_async_lags_then_heals () =
  let base = fresh_base () in
  let g =
    G.open_group ~replicas:1 ~sync:M.Async
      ~faults:(F.spec_of_string "drop@ship=1,drop@snapshot=1,seed=4")
      base
  in
  let acked = run_txns g 1 4 in
  Alcotest.(check int) "async acks immediately" 4 acked;
  Alcotest.(check bool) "replica lags" true (G.lag g > 0);
  Alcotest.(check int) "async journals nothing" 0
    (List.length (M.load_acks base));
  (* the link heals: catch-up closes the gap *)
  F.configure (G.fault g) F.no_faults;
  G.catch_up g;
  Alcotest.(check int) "caught up" 0 (G.lag g);
  check_converged g;
  G.close g;
  cleanup base

let test_quorum_missed_under_total_loss () =
  let base = fresh_base () in
  let g =
    G.open_group ~replicas:2 ~sync:M.Quorum
      ~faults:(F.spec_of_string "drop@replica=1,seed=9")
      base
  in
  let acked = run_txns g 1 3 in
  Alcotest.(check int) "no commit reaches quorum" 0 acked;
  Alcotest.(check int) "nothing journaled" 0 (List.length (M.load_acks base));
  Alcotest.(check bool) "commits are still locally durable" true
    (List.length (G.items g) > 0);
  G.close g;
  cleanup base

let test_failover_promotes_and_heals () =
  let base = fresh_base () in
  let g = G.open_group ~replicas:2 ~sync:M.Quorum base in
  ignore (run_txns g 1 5 : int);
  let before = G.items g in
  let winner = G.failover g in
  Alcotest.(check bool) "a replica won" true (winner = 1 || winner = 2);
  Alcotest.(check int) "epoch bumped" 2 (G.epoch g);
  Alcotest.(check int) "descriptor agrees" 2
    (match M.load_group base with Some d -> d.M.epoch | None -> -1);
  Alcotest.(check bool) "no committed state lost" true (G.items g = before);
  (* the group keeps accepting writes at the new epoch *)
  let acked = run_txns g 6 8 in
  Alcotest.(check int) "post-failover commits reach quorum" 3 acked;
  G.catch_up g;
  check_converged g;
  G.close g;
  Alcotest.(check (list string)) "repl lint clean after failover" []
    (errors (RL.lint_base base));
  cleanup base

let test_fencing_deposes_primary () =
  let base = fresh_base () in
  let g = G.open_group ~replicas:1 ~sync:M.Quorum base in
  ignore (run_txns g 1 2 : int);
  (* node 1 learns of a newer epoch (as if promoted elsewhere) *)
  (match G.replica g 1 with
  | Some r -> (
      match R.receive r ~epoch:9 ~start:(R.durable_lsn r) ~chunk:"" with
      | R.Acked _ -> ()
      | _ -> Alcotest.fail "epoch bump should ack")
  | None -> Alcotest.fail "replica handle missing");
  let txn = G.begin_txn g in
  G.write g ~txn "z" 1;
  (match G.commit g ~txn with
  | G.Local_only -> ()
  | G.Acked -> Alcotest.fail "a fenced primary must not reach quorum");
  (match G.begin_txn g with
  | exception G.Fenced e -> Alcotest.(check int) "fenced by epoch" 9 e
  | _ -> Alcotest.fail "expected Fenced");
  (* the scheduler stops on a fenced primary as on a degraded engine *)
  let stats = X.run (G.backend g) [| [ Transactions.Schedule.Write "w" ] |] in
  Alcotest.(check int) "nothing more commits" 0 stats.X.committed;
  Alcotest.(check bool) "run stopped as degraded" true stats.X.degraded;
  Alcotest.(check (option int)) "fencing epoch kept" (Some 9) (G.fenced g);
  G.crash g;
  cleanup base

(* --- RP lint codes on synthetic files ------------------------------------ *)

let test_lint_rp001_diverged () =
  let base = fresh_base () in
  write_file base "";
  write_file (M.node_path base 1) "";
  M.save_group base { M.epoch = 1; primary = 0; nodes = 2; sync = M.Quorum };
  write_file (E.wal_path base)
    (frames [ W.Begin 1; W.Commit 1 ]);
  (* node 1 claims the current epoch but holds different bytes *)
  write_file (E.wal_path (M.node_path base 1))
    (frames [ W.Begin 9; W.Commit 9 ]);
  M.save_node (M.node_path base 1) ~epoch:1 ~snapshot_lsn:0;
  Alcotest.(check (list string)) "diverged replica" [ "RP001" ]
    (errors (RL.lint_base base));
  (* the same divergence at a stale epoch is only informational *)
  M.save_group base { M.epoch = 2; primary = 0; nodes = 2; sync = M.Quorum };
  Alcotest.(check (list string)) "stale-epoch divergence tolerated" []
    (errors (RL.lint_base base));
  cleanup base

let test_lint_rp002_epoch_regress () =
  let base = fresh_base () in
  write_file base "";
  write_file (M.node_path base 1) "";
  M.save_group base { M.epoch = 3; primary = 0; nodes = 2; sync = M.Quorum };
  append_acks base
    [
      { M.txn = 1; lsn = 10; ack_epoch = 2 };
      { M.txn = 2; lsn = 20; ack_epoch = 1 };
      { M.txn = 3; lsn = 30; ack_epoch = 9 };
    ];
  let codes = errors (RL.lint_base base) in
  Alcotest.(check bool) "epoch regression flagged" true
    (List.mem "RP002" codes);
  Alcotest.(check bool) "epoch beyond group flagged" true
    (List.length (List.filter (( = ) "RP002") codes) >= 2);
  cleanup base

let test_lint_rp003_acked_lost () =
  let base = fresh_base () in
  write_file base "";
  write_file (M.node_path base 1) "";
  M.save_group base { M.epoch = 1; primary = 0; nodes = 2; sync = M.Quorum };
  let log = frames [ W.Begin 1; W.Commit 1 ] in
  write_file (E.wal_path base) log;
  (* txn 1 acked within the log: fine; txn 9 never committed: lost *)
  append_acks base
    [
      { M.txn = 1; lsn = String.length log; ack_epoch = 1 };
      { M.txn = 9; lsn = String.length log; ack_epoch = 1 };
    ];
  Alcotest.(check (list string)) "acked-but-lost commit" [ "RP003" ]
    (errors (RL.lint_base base));
  (* a watermark beyond the clean log is also a loss *)
  append_acks base [ { M.txn = 1; lsn = String.length log + 64; ack_epoch = 1 } ];
  Alcotest.(check int) "watermark beyond log" 2
    (List.length (errors (RL.lint_base base)));
  cleanup base

let test_lint_rp004_snapshot_gap () =
  let base = fresh_base () in
  write_file base "";
  write_file (M.node_path base 1) "";
  M.save_group base { M.epoch = 1; primary = 0; nodes = 2; sync = M.Quorum };
  (* snapshot watermark ahead of an empty log *)
  M.save_node (M.node_path base 1) ~epoch:1 ~snapshot_lsn:100;
  Alcotest.(check (list string)) "watermark ahead of log" [ "RP004" ]
    (errors (RL.lint_base base));
  (* a shipped checkpoint beyond the snapshot watermark (the Checkpoint
     must sit at a nonzero offset for the watermark to lag it) *)
  let log = frames [ W.Begin 1; W.Commit 1; W.Checkpoint ] in
  write_file (E.wal_path base) log;
  write_file (E.wal_path (M.node_path base 1)) log;
  M.save_node (M.node_path base 1) ~epoch:1 ~snapshot_lsn:0;
  Alcotest.(check (list string)) "checkpoint past snapshot" [ "RP004" ]
    (errors (RL.lint_base base));
  (* covered by the watermark: clean *)
  M.save_node (M.node_path base 1) ~epoch:1 ~snapshot_lsn:(String.length log);
  Alcotest.(check (list string)) "covered checkpoint clean" []
    (errors (RL.lint_base base));
  cleanup base

(* --- QCheck: the replication contract under faults ----------------------- *)

let repl_fault_specs =
  [|
    "crash=12";
    "crash=25,drop=0.2";
    "drop=0.4";
    "crash=18,drop=0.15,delay=0.2";
    "part=0.2,crash=30";
    "crash=40,drop=0.1,part=0.1";
  |]

let prop_sweep_converges_and_lints_clean =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:20
       ~name:"repl survivors: acked commits kept, byte-identical, lint clean"
       (QCheck2.Gen.int_range 0 100_000)
       (fun seed ->
         let spec0 = repl_fault_specs.(seed mod Array.length repl_fault_specs) in
         let spec = F.spec_of_string (Printf.sprintf "%s,seed=%d" spec0 seed) in
         let base = fresh_base () in
         let acked = ref [] in
         (* phase 1: a faulted run; quorum-acked txns are recorded *)
         (match G.open_group ~replicas:2 ~sync:M.Quorum ~faults:spec base with
         | exception F.Crash _ -> ()
         | g -> (
             try
               for t = 1 to 8 do
                 let txn = G.begin_txn g in
                 G.write g ~txn (Printf.sprintf "x%d" (t mod 5)) t;
                 G.write g ~txn (Printf.sprintf "y%d" (t mod 3)) (t * 10);
                 match G.commit g ~txn with
                 | G.Acked -> acked := txn :: !acked
                 | G.Local_only -> ()
               done;
               G.close g
             with F.Crash _ -> ( try G.crash g with _ -> ())));
         (* phase 2: heal, maybe fail over, write a little more *)
         let g = G.open_group base in
         if seed land 1 = 1 then ignore (G.failover g : int);
         (let txn = G.begin_txn g in
          G.write g ~txn "final" 1;
          match G.commit g ~txn with
          | G.Acked -> acked := txn :: !acked
          | G.Local_only -> failwith "faultless commit must reach quorum");
         G.catch_up g;
         (* every quorum-acked transaction is committed on the primary *)
         let committed =
           List.filter_map
             (fun { W.record; _ } ->
               match record with W.Commit t -> Some t | _ -> None)
             (W.read_entries (E.wal_path (M.node_path base (G.primary_id g))))
         in
         List.iter
           (fun txn ->
             if not (List.mem txn committed) then
               failwith (Printf.sprintf "acked txn %d lost" txn))
           !acked;
         check_converged g;
         let primary = G.primary_id g in
         G.close g;
         (* each replica's promoted copy serves what its own log commits *)
         for k = 0 to G.node_count g - 1 do
           if k <> primary then begin
             let node = M.node_path base k in
             let expected =
               X.committed_items
                 (List.map
                    (fun e -> e.W.record)
                    (W.read_entries (E.wal_path node)))
             in
             if promoted_items node <> expected then
               failwith
                 (Printf.sprintf "node %d: promoted copy differs from its log" k)
           end
         done;
         (* phase 3: the survivor files lint clean *)
         let rl = errors (RL.lint_base base) in
         if rl <> [] then
           failwith ("lint repl errors: " ^ String.concat "," rl);
         let d = M.load_group base in
         let nodes = match d with Some d -> d.M.nodes | None -> 0 in
         for k = 0 to nodes - 1 do
           let wl =
             errors (WL.lint_file (E.wal_path (M.node_path base k)))
           in
           if wl <> [] then
             failwith
               (Printf.sprintf "lint wal errors on node %d: %s" k
                  (String.concat "," wl))
         done;
         cleanup base;
         true))

(* --- QCheck: concurrent replicated workloads under faults ------------------ *)

let workload seed =
  Transactions.Workload.generate (Support.Rng.create seed)
    {
      Transactions.Workload.txns = 4;
      ops_per_txn = 4;
      items = 8;
      skew = 0.5;
      write_ratio = 0.6;
    }

let sched_fault_specs =
  [|
    "crash=9";
    "crash=17,drop=0.2";
    "crash=13,delay=0.3";
    "crash=21,part=0.15";
    "drop=0.3,delay=0.2,part=0.1";
    "crash=29,drop=0.1,part=0.1";
    "crash=25,drop=0.15,delay=0.15,part=0.1";
  |]

(* run the scheduler over a faulted group; lint the survivor files as
   the run left them; then heal through the model check, which reopens
   the group.  Odd seeds also fail over, so a replica that applied the
   concurrent run's shipped log becomes the primary checked next. *)
let prop_scheduler_crash_sweep =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25
       ~name:"replicated scheduler survivors lint clean and heal to the model"
       (QCheck2.Gen.int_range 0 100_000)
       (fun seed ->
         let spec0 =
           sched_fault_specs.(seed mod Array.length sched_fault_specs)
         in
         let spec = F.spec_of_string (Printf.sprintf "%s,seed=%d" spec0 seed) in
         let base = fresh_base () in
         (match G.open_group ~replicas:2 ~sync:M.Quorum ~faults:spec base with
         | exception F.Crash _ -> ()
         | g -> (
             let stats =
               X.run ~config:{ X.default_config with seed } (G.backend g)
                 (workload seed)
             in
             match stats.X.crashed with
             | Some _ -> ()
             | None -> ( try G.close g with F.Crash _ -> G.crash g)));
         let fail what codes =
           if codes <> [] then
             QCheck2.Test.fail_reportf "spec %S: %s: %s" spec0 what
               (String.concat "," codes)
         in
         fail "lint repl" (errors (RL.lint_base base));
         for k = 0 to 2 do
           fail
             (Printf.sprintf "node %d lint wal" k)
             (errors (WL.lint_file (E.wal_path (M.node_path base k))))
         done;
         let model () =
           if G.model_divergence ~path:base <> None then
             fail "model check" [ "diverged" ]
         in
         model ();
         if seed land 1 = 1 then begin
           let g = G.open_group base in
           ignore (G.failover g : int);
           G.close g;
           model ()
         end;
         cleanup base;
         true))

(* --- QCheck: one scheduler, three backends, the same decisions -------------- *)

let with_dir f =
  let dir = Filename.temp_dir "dbmeta_backends" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f (Filename.concat dir "db"))

(* one fault-free run per backend: the scheduler's counters, and
   whether that backend's model check passed *)
let on_backends config programs =
  let counters s =
    X.(s.committed, s.restarts, s.deadlocks, s.timeouts, s.steps, s.wasted_ops)
  in
  let local =
    with_dir (fun path ->
        let eng = E.open_db path in
        let s = X.run ~config (X.engine eng) programs in
        E.close eng;
        (counters s, X.model_divergence ~path = None))
  in
  let sharded =
    with_dir (fun path ->
        let coord = C.open_dist ~shards:2 path in
        let s = X.run ~config (C.backend coord) programs in
        C.close coord;
        (counters s, C.model_divergence ~path = None))
  in
  let replicated =
    with_dir (fun path ->
        let g = G.open_group ~replicas:2 ~sync:M.Quorum path in
        let s = X.run ~config (G.backend g) programs in
        G.close g;
        (counters s, G.model_divergence ~path = None))
  in
  (local, sharded, replicated)

let prop_same_decisions_on_every_backend =
  let open QCheck2 in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:15
       ~name:"scheduler decides alike on engine, 2 shards and 2 replicas"
       Gen.(
         quad (int_range 0 100_000) (int_range 2 8) (int_range 2 8)
           (opt (int_range 1 4)))
       (fun (seed, txns, items, lock_timeout) ->
         let programs =
           Transactions.Workload.generate (Support.Rng.create seed)
             {
               Transactions.Workload.txns;
               ops_per_txn = 5;
               items;
               skew = 0.5;
               write_ratio = 0.7;
             }
         in
         let (local, ok_l), (sharded, ok_s), (replicated, ok_r) =
           on_backends { X.seed; lock_timeout } programs
         in
         let show (c, r, d, t, s, w) =
           Printf.sprintf
             "committed %d restarts %d deadlocks %d timeouts %d steps %d \
              wasted %d"
             c r d t s w
         in
         if local = sharded && local = replicated then ok_l && ok_s && ok_r
         else
           Test.fail_reportf "local: %s\nsharded: %s\nreplicated: %s"
             (show local) (show sharded) (show replicated)))

let suite =
  [
    ("meta: codecs round-trip", `Quick, test_meta_roundtrip);
    ("meta: torn ack tail tolerated", `Quick, test_meta_torn_ack_tolerated);
    ("meta: append after a torn ack", `Quick, test_meta_torn_ack_then_append);
    ("replica: receive, redo, fencing", `Quick, test_replica_receive_and_redo);
    ("group: streams and quorum-acks", `Quick, test_group_streams_and_acks);
    ("group: reopen catches up", `Quick, test_group_reopen_catches_up);
    ("group: async lags then heals", `Quick, test_async_lags_then_heals);
    ( "group: quorum missed under total loss",
      `Quick,
      test_quorum_missed_under_total_loss );
    ("group: failover promotes and heals", `Quick, test_failover_promotes_and_heals);
    ("group: fencing deposes the primary", `Quick, test_fencing_deposes_primary);
    ("lint repl: RP001 diverged replica", `Quick, test_lint_rp001_diverged);
    ("lint repl: RP002 epoch regress", `Quick, test_lint_rp002_epoch_regress);
    ("lint repl: RP003 acked lost", `Quick, test_lint_rp003_acked_lost);
    ("lint repl: RP004 snapshot gap", `Quick, test_lint_rp004_snapshot_gap);
    prop_sweep_converges_and_lints_clean;
    prop_scheduler_crash_sweep;
    prop_same_decisions_on_every_backend;
  ]
