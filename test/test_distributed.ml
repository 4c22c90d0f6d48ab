(* Tests for the sharded atomic-commit stack: router determinism, the
   coordinator log codec and its torn-tail tolerance, the message layer's
   fault draws, 2PC happy paths and abort paths, stranded decisions
   resolved by the termination protocol, a crash matrix over every
   durable I/O point, the commit lint's 2C codes on synthetic logs, and
   the QCheck crash-sweep property: survivor logs always lint clean. *)

module C = Distributed.Coordinator
module CL = Distributed.Coord_log
module N = Distributed.Net
module R = Distributed.Router
module E = Storage.Engine
module F = Storage.Fault
module X = Storage.Executor
module W = Storage.Wal
module S = Transactions.Schedule

let tmp_counter = ref 0

let fresh_base () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dbmeta_dist_test_%d_%d.db" (Unix.getpid ()) !tmp_counter)

let cleanup base n =
  let rm p = if Sys.file_exists p then Sys.remove p in
  rm (C.coord_path base);
  for k = 0 to n - 1 do
    rm (C.shard_path base k);
    rm (E.wal_path (C.shard_path base k))
  done

(* the first item name that routes to shard [k] *)
let item_on ~shards k =
  let rec go i =
    let it = Printf.sprintf "x%d" i in
    if R.shard_of ~shards it = k then it else go (i + 1)
  in
  go 0

let injector spec =
  let f = F.create () in
  F.configure f (F.spec_of_string spec);
  f

(* --- router -------------------------------------------------------------- *)

let test_router_deterministic () =
  Alcotest.(check int) "stable" (R.hash "x1") (R.hash "x1");
  for shards = 1 to 8 do
    for i = 0 to 63 do
      let k = R.shard_of ~shards (Printf.sprintf "x%d" i) in
      Alcotest.(check bool) "in range" true (k >= 0 && k < shards)
    done
  done;
  Alcotest.(check int) "one shard is total" 0 (R.shard_of ~shards:1 "anything")

let test_router_spreads () =
  let shards = 4 in
  let hit = Array.make shards 0 in
  for i = 0 to 63 do
    let k = R.shard_of ~shards (Printf.sprintf "x%d" i) in
    hit.(k) <- hit.(k) + 1
  done;
  Array.iteri
    (fun k c ->
      Alcotest.(check bool) (Printf.sprintf "shard %d nonempty" k) true (c > 0))
    hit

let test_router_invalid () =
  Alcotest.check_raises "zero shards"
    (Invalid_argument "Router.shard_of: shard count must be positive")
    (fun () -> ignore (R.shard_of ~shards:0 "x" : int))

(* --- fault-spec grammar: the new message kinds --------------------------- *)

let test_fault_spec_roundtrip () =
  let spec =
    F.spec_of_string "drop=0.5,delay@commit=0.25,part@prepare shard 1=1,seed=3"
  in
  let s = F.spec_to_string spec in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true
        (Str_contains.contains s needle))
    [ "drop=0.5"; "delay@commit=0.25"; "part@prepare shard 1=1"; "seed=3" ]

let check_parse_error what input needles =
  match F.spec_of_string input with
  | _ -> Alcotest.failf "%s: %S parsed" what input
  | exception Invalid_argument msg ->
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "%s mentions %s" what needle)
            true
            (Str_contains.contains msg needle))
        ("the grammar is" :: needles)

let test_fault_spec_errors () =
  check_parse_error "no equals" "nope" [ "\"nope\""; "no '='" ];
  check_parse_error "unknown kind" "lag=0.5" [ "\"lag\"" ];
  check_parse_error "bad probability" "drop=monday"
    [ "\"monday\""; "probability" ];
  check_parse_error "out of range" "part=1.5" [ "\"1.5\"" ];
  check_parse_error "empty site" "drop@=0.5" [ "empty @site" ];
  check_parse_error "scoped scalar" "seed@wal=3" [ "no @site" ];
  check_parse_error "bad count" "crash=soon" [ "\"soon\""; "integer" ]

(* --- coordinator log: codec and torn tails -------------------------------- *)

let all_records =
  [
    CL.Begin { txn = 7; shards = [ 0; 1; 3 ] };
    CL.Vote { txn = 7; shard = 0; yes = true };
    CL.Vote { txn = 7; shard = 3; yes = false };
    CL.Decide { txn = 7; decision = CL.Abort };
    CL.Begin { txn = 8; shards = [ 1 ] };
    CL.Decide { txn = 8; decision = CL.Commit };
    CL.Forget 8;
  ]

(* the coordinator log is a Log_file in Coord_log's codec *)
let open_coord_log path = Storage.Log_file.open_file ~valid:CL.valid path

let append_all log =
  List.iter
    (fun r -> ignore (Storage.Log_file.append log (CL.frame r) : int))
    all_records;
  Storage.Log_file.flush log;
  Storage.Log_file.close log

let test_coord_log_roundtrip () =
  let base = fresh_base () in
  let path = C.coord_path base in
  let log, image = open_coord_log path in
  Alcotest.(check int) "fresh log empty" 0 (String.length image);
  append_all log;
  let survivors = List.map (fun e -> e.CL.record) (CL.read_file path) in
  Alcotest.(check int) "all survive" (List.length all_records)
    (List.length survivors);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "record" (CL.record_to_string a)
        (CL.record_to_string b))
    all_records survivors;
  cleanup base 0

let test_coord_log_torn_tail () =
  let base = fresh_base () in
  let path = C.coord_path base in
  let log, _ = open_coord_log path in
  append_all log;
  let whole = (Unix.stat path).Unix.st_size in
  (* tear the file mid-frame: the tolerant scan keeps the prefix *)
  Fixtures.truncate_file path (whole - 3);
  let survivors = CL.read_file path in
  Alcotest.(check int) "one frame lost" (List.length all_records - 1)
    (List.length survivors);
  (* reopening truncates the torn bytes away *)
  let log, image = open_coord_log path in
  Alcotest.(check int) "reopen sees the prefix" (List.length survivors)
    (List.length (fst (Storage.Log_file.payloads ~valid:CL.valid image)));
  Storage.Log_file.close log;
  Alcotest.(check bool) "tail gone" true ((Unix.stat path).Unix.st_size < whole);
  cleanup base 0

(* --- net: draws and retries ----------------------------------------------- *)

let net_config = { N.msg_timeout = 4; max_attempts = 3; max_backoff = 8 }

let test_net_faultless () =
  let net = N.create ~fault:(injector "") ~seed:1 net_config in
  (match N.call net ~site:"prepare shard 0" (fun () -> 41 + 1) with
  | Ok v -> Alcotest.(check int) "delivered" 42 v
  | Error _ -> Alcotest.fail "faultless call lost");
  match N.once net ~site:"commit shard 0" (fun () -> "ack") with
  | N.Reply v -> Alcotest.(check string) "once delivers" "ack" v
  | N.Lost _ -> Alcotest.fail "faultless once lost"

let test_net_total_drop () =
  let net = N.create ~fault:(injector "drop=1,seed=2") ~seed:2 net_config in
  let ran = ref 0 in
  (match N.call net ~site:"prepare shard 0" (fun () -> incr ran) with
  | Ok () -> Alcotest.fail "dropped call delivered"
  | Error processed ->
      Alcotest.(check bool) "handler never ran" false processed);
  Alcotest.(check int) "no delivery" 0 !ran;
  Alcotest.(check bool) "time passed" true (N.ticks net > 0)

let test_net_partition_may_process () =
  (* a partitioned exchange can run the handler and lose the reply —
     the caller is told processed=true so it can account strandedness *)
  let net = N.create ~fault:(injector "part=1,seed=5") ~seed:5 net_config in
  let ran = ref 0 in
  let processed_any =
    match N.call net ~site:"commit shard 1" (fun () -> incr ran) with
    | Ok () -> Alcotest.fail "partitioned call delivered"
    | Error processed -> processed
  in
  Alcotest.(check bool) "processed iff handler ran" (!ran > 0) processed_any

(* --- 2PC: commit and abort paths ------------------------------------------ *)

let test_two_shard_commit () =
  let base = fresh_base () in
  let coord = C.open_dist ~shards:2 base in
  let a = item_on ~shards:2 0 and b = item_on ~shards:2 1 in
  let txn = C.begin_txn coord in
  C.write coord ~txn a 10;
  C.write coord ~txn b 20;
  (match C.commit coord ~txn with
  | C.Committed -> ()
  | C.Aborted why -> Alcotest.failf "aborted: %s" why);
  Alcotest.(check (list (pair string int))) "both visible"
    (List.sort compare [ (a, 10); (b, 20) ])
    (C.items coord);
  Alcotest.(check (list int)) "nothing stranded" [] (C.stranded_txns coord);
  C.close coord;
  (* the protocol's paper trail: votes, a forced commit, a forget *)
  let records = List.map (fun e -> e.CL.record) (CL.read_file (C.coord_path base)) in
  let has f = List.exists f records in
  Alcotest.(check bool) "Begin logged" true
    (has (function CL.Begin { txn = t; _ } -> t = txn | _ -> false));
  Alcotest.(check bool) "Decide commit logged" true
    (has (function
      | CL.Decide { txn = t; decision = CL.Commit } -> t = txn
      | _ -> false));
  Alcotest.(check bool) "Forget logged" true
    (has (function CL.Forget t -> t = txn | _ -> false));
  (* durable across a reopen *)
  let coord = C.open_dist base in
  Alcotest.(check int) "discover finds both shards" 2 (C.shard_count coord);
  Alcotest.(check int) "reread a" 10 (C.read coord a);
  Alcotest.(check int) "reread b" 20 (C.read coord b);
  C.close coord;
  Alcotest.(check (list Alcotest.string)) "commit lint clean" []
    (List.filter_map
       (fun d ->
         if d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error then
           Some d.Analysis.Diagnostic.code
         else None)
       (Analysis.Commit_lint.lint_base base));
  cleanup base 2

let test_one_phase_commit () =
  let base = fresh_base () in
  let coord = C.open_dist ~shards:2 base in
  let a = item_on ~shards:2 0 in
  let txn = C.begin_txn coord in
  C.write coord ~txn a 5;
  (match C.commit coord ~txn with
  | C.Committed -> ()
  | C.Aborted why -> Alcotest.failf "aborted: %s" why);
  C.close coord;
  (* single-participant: no protocol records at all — presumed-abort
     bookkeeping is for transactions the coordinator had to decide *)
  Alcotest.(check int) "coordinator log stays empty" 0
    (List.length (CL.read_file (C.coord_path base)));
  cleanup base 2

(* Items hash over the shard count: a count that disagrees with the
   files on disk is refused, with no file touched, once a shard holds
   committed data.  A crash while creating a family leaves fewer shard
   files, all empty, and the next open with the intended count
   completes it. *)
let test_shard_count_mismatch () =
  let base = fresh_base () in
  let coord = C.open_dist ~shards:2 base in
  let txn = C.begin_txn coord in
  C.write coord ~txn (item_on ~shards:2 0) 1;
  (match C.commit coord ~txn with
  | C.Committed -> ()
  | C.Aborted why -> Alcotest.failf "aborted: %s" why);
  C.close coord;
  let files =
    C.coord_path base
    :: List.concat_map
         (fun k -> [ C.shard_path base k; E.wal_path (C.shard_path base k) ])
         [ 0; 1; 2 ]
  in
  let snapshot () =
    List.map
      (fun p ->
        if Sys.file_exists p then Some (Support.Io.read_file p) else None)
      files
  in
  let before = snapshot () in
  List.iter
    (fun n ->
      match C.open_dist ~shards:n base with
      | exception Invalid_argument _ -> ()
      | c ->
          C.close c;
          Alcotest.failf "a 2-shard family opened with %d shards" n)
    [ 1; 3 ];
  Alcotest.(check bool) "no file changed" true (before = snapshot ());
  cleanup base 3;
  let base = fresh_base () in
  (match C.open_dist ~shards:2 ~crash_after:0 base with
  | exception F.Crash _ -> ()
  | c ->
      C.close c;
      Alcotest.fail "no crash at the first durable I/O");
  Alcotest.(check int) "one empty shard file" 1 (C.discover base);
  let coord = C.open_dist ~shards:2 base in
  Alcotest.(check int) "family completed" 2 (C.shard_count coord);
  C.close coord;
  Alcotest.(check int) "both shard files" 2 (C.discover base);
  cleanup base 2

let test_lost_prepare_aborts () =
  let base = fresh_base () in
  let spec = F.spec_of_string "drop@prepare=1,seed=4" in
  let coord = C.open_dist ~shards:2 ~faults:spec base in
  let a = item_on ~shards:2 0 and b = item_on ~shards:2 1 in
  let txn = C.begin_txn coord in
  C.write coord ~txn a 1;
  C.write coord ~txn b 2;
  (match C.commit coord ~txn with
  | C.Committed -> Alcotest.fail "committed without any PREPARE delivered"
  | C.Aborted _ -> ());
  C.close coord;
  let coord = C.open_dist base in
  Alcotest.(check (list (pair string int))) "nothing committed" []
    (C.items coord);
  C.close coord;
  cleanup base 2

let test_voluntary_abort () =
  let base = fresh_base () in
  let coord = C.open_dist ~shards:2 base in
  let a = item_on ~shards:2 0 and b = item_on ~shards:2 1 in
  let txn = C.begin_txn coord in
  C.write coord ~txn a 1;
  C.write coord ~txn b 2;
  C.abort coord ~txn;
  Alcotest.(check (list (pair string int))) "rolled back" [] (C.items coord);
  C.close coord;
  cleanup base 2

(* --- stranded decisions: nudge and the termination protocol --------------- *)

let test_stranded_commit_resolved_at_restart () =
  let base = fresh_base () in
  (* every COMMIT message to shard 1 is dropped outright: the decision
     is durable but undeliverable, so the transaction strands *)
  let spec = F.spec_of_string "drop@commit shard 1=1,seed=1" in
  let coord = C.open_dist ~shards:2 ~faults:spec base in
  let a = item_on ~shards:2 0 and b = item_on ~shards:2 1 in
  let txn = C.begin_txn coord in
  C.write coord ~txn a 10;
  C.write coord ~txn b 20;
  (match C.commit coord ~txn with
  | C.Committed -> ()
  | C.Aborted why -> Alcotest.failf "decided abort: %s" why);
  Alcotest.(check bool) "stranded" true (C.is_stranded coord txn);
  C.nudge coord;
  Alcotest.(check bool) "nudge cannot land either" true
    (C.is_stranded coord txn);
  C.close coord;
  (* the survivor logs are the in-doubt shape the lint warns about *)
  let diags = Analysis.Commit_lint.lint_base base in
  Alcotest.(check bool) "2C002 warned" true
    (List.exists (fun d -> d.Analysis.Diagnostic.code = "2C002") diags);
  Alcotest.(check bool) "no errors" false
    (Analysis.Diagnostic.has_errors diags);
  (* restart without faults: the termination protocol completes it *)
  let coord = C.open_dist base in
  Alcotest.(check (pair int int)) "one commit completed" (1, 0)
    (C.resolved coord);
  Alcotest.(check (list (pair string int))) "atomic after all"
    (List.sort compare [ (a, 10); (b, 20) ])
    (C.items coord);
  C.close coord;
  Alcotest.(check bool) "lint clean after resolution" false
    (Analysis.Diagnostic.has_errors (Analysis.Commit_lint.lint_base base));
  cleanup base 2

(* --- the executor over a coordinator ---------------------------------------- *)

let test_dist_executor_workload () =
  let base = fresh_base () in
  let coord = C.open_dist ~shards:2 base in
  let specs =
    Transactions.Workload.generate (Support.Rng.create 11)
      {
        Transactions.Workload.txns = 6;
        ops_per_txn = 4;
        items = 10;
        skew = 0.5;
        write_ratio = 0.6;
      }
  in
  let stats =
    X.run ~config:{ X.default_config with seed = 11 } (C.backend coord) specs
  in
  let stranded = C.stranded_txns coord in
  C.close coord;
  Alcotest.(check int) "all commit" 6 stats.X.committed;
  Alcotest.(check (list int)) "nothing stranded" [] stranded;
  Alcotest.(check bool) "model agrees" true
    (C.model_divergence ~path:base = None);
  cleanup base 2

let test_dist_executor_cross_shard_deadlock () =
  let base = fresh_base () in
  let coord = C.open_dist ~shards:2 base in
  let a = item_on ~shards:2 0 and b = item_on ~shards:2 1 in
  let specs = [| [ S.Write a; S.Write b ]; [ S.Write b; S.Write a ] |] in
  let stats =
    X.run ~config:{ X.default_config with seed = 7 } (C.backend coord) specs
  in
  C.close coord;
  Alcotest.(check int) "both commit" 2 stats.X.committed;
  Alcotest.(check bool) "model agrees" true
    (C.model_divergence ~path:base = None);
  cleanup base 2

(* --- crash matrix: every durable I/O point --------------------------------- *)

let run_crashy base crash_after =
  let specs =
    Transactions.Workload.generate (Support.Rng.create 23)
      {
        Transactions.Workload.txns = 5;
        ops_per_txn = 4;
        items = 8;
        skew = 0.5;
        write_ratio = 0.7;
      }
  in
  match C.open_dist ~shards:2 ~crash_after base with
  | exception F.Crash _ -> true
  | coord -> (
      let stats =
        X.run ~config:{ X.default_config with seed = 23 } (C.backend coord)
          specs
      in
      match stats.X.crashed with
      | Some _ -> true
      | None -> (
          try
            C.close coord;
            false
          with F.Crash _ ->
            C.crash coord;
            true))

let survivors_clean base =
  let wal_errors k =
    List.filter
      (fun d -> d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error)
      (Analysis.Wal_lint.lint_file (E.wal_path (C.shard_path base k)))
  in
  let commit_errors =
    List.filter
      (fun d -> d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error)
      (Analysis.Commit_lint.lint_base base)
  in
  wal_errors 0 = [] && wal_errors 1 = [] && commit_errors = []

let test_crash_matrix () =
  (* crash at the N-th durable I/O for every N until the run completes:
     each prefix must leave survivor logs that lint clean and a state
     the model check accepts after recovery *)
  let rec sweep i =
    if i > 400 then Alcotest.fail "crash matrix did not terminate";
    let base = fresh_base () in
    let crashed = run_crashy base i in
    Alcotest.(check bool)
      (Printf.sprintf "survivors clean at io %d" i)
      true (survivors_clean base);
    Alcotest.(check bool)
      (Printf.sprintf "model agrees at io %d" i)
      true
      (C.model_divergence ~path:base = None);
    cleanup base 2;
    if crashed then sweep (i + 1)
  in
  sweep 0

(* --- QCheck: survivor logs of any faulted run lint clean ------------------- *)

let dist_fault_specs =
  [|
    "crash=9";
    "crash=17,drop=0.2";
    "crash=13,delay=0.3";
    "crash=21,part=0.15";
    "drop=0.3,delay=0.2,part=0.1";
    "crash=29,drop=0.1,part=0.1";
    "crash=25,drop=0.15,delay=0.15,part=0.1";
  |]

let prop_crash_sweep_lints_clean =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25
       ~name:"2PC survivor logs pass lint wal + lint commit"
       (QCheck2.Gen.int_range 0 100_000)
       (fun seed ->
         let spec0 = dist_fault_specs.(seed mod Array.length dist_fault_specs) in
         let spec = F.spec_of_string (Printf.sprintf "%s,seed=%d" spec0 seed) in
         let base = fresh_base () in
         let programs =
           Transactions.Workload.generate (Support.Rng.create seed)
             {
               Transactions.Workload.txns = 4;
               ops_per_txn = 4;
               items = 8;
               skew = 0.5;
               write_ratio = 0.6;
             }
         in
         (match C.open_dist ~shards:2 ~faults:spec base with
         | exception F.Crash _ -> ()
         | coord -> (
             let stats =
               X.run ~config:{ X.default_config with seed } (C.backend coord)
                 programs
             in
             match stats.X.crashed with
             | Some _ -> ()
             | None -> ( try C.close coord with F.Crash _ -> C.crash coord)));
         let ok =
           survivors_clean base && C.model_divergence ~path:base = None
         in
         cleanup base 2;
         ok))

(* --- commit lint: each 2C code on synthetic logs --------------------------- *)

let centry record = { CL.off = 0; record }
let wentry record = (W.kind_of record, W.txn_of record)

let codes ?(severity = Analysis.Diagnostic.Error) input =
  List.filter_map
    (fun d ->
      if d.Analysis.Diagnostic.severity = severity then
        Some d.Analysis.Diagnostic.code
      else None)
    (Analysis.Commit_lint.lint input)
  |> List.sort_uniq compare

let mk coord shards =
  {
    Analysis.Commit_lint.coord = List.map centry coord;
    shards = List.map (fun (k, rs) -> (k, List.map wentry rs)) shards;
  }

let complete_shard txn = [ W.Begin txn; W.Prepare txn; W.Commit txn ]

let test_lint_clean_protocol () =
  let input =
    mk
      [
        CL.Begin { txn = 1; shards = [ 0; 1 ] };
        CL.Vote { txn = 1; shard = 0; yes = true };
        CL.Vote { txn = 1; shard = 1; yes = true };
        CL.Decide { txn = 1; decision = CL.Commit };
        CL.Forget 1;
      ]
      [ (0, complete_shard 1); (1, complete_shard 1) ]
  in
  Alcotest.(check (list string)) "no errors" [] (codes input);
  Alcotest.(check (list string)) "no warnings" []
    (codes ~severity:Analysis.Diagnostic.Warning input)

let test_lint_2c001_decide_without_votes () =
  let input =
    mk
      [
        CL.Begin { txn = 1; shards = [ 0; 1 ] };
        CL.Vote { txn = 1; shard = 0; yes = true };
        CL.Decide { txn = 1; decision = CL.Commit };
      ]
      [ (0, complete_shard 1); (1, complete_shard 1) ]
  in
  Alcotest.(check (list string)) "missing vote" [ "2C001" ] (codes input);
  let orphan =
    mk [ CL.Decide { txn = 9; decision = CL.Commit } ] [ (0, []); (1, []) ]
  in
  Alcotest.(check (list string)) "decide without begin" [ "2C001" ]
    (codes orphan)

let test_lint_2c002_prepared_forever () =
  let input =
    mk
      [
        CL.Begin { txn = 1; shards = [ 0; 1 ] };
        CL.Vote { txn = 1; shard = 0; yes = true };
        CL.Vote { txn = 1; shard = 1; yes = true };
        CL.Decide { txn = 1; decision = CL.Commit };
      ]
      [ (0, complete_shard 1); (1, [ W.Begin 1; W.Prepare 1 ]) ]
  in
  Alcotest.(check (list string)) "no errors" [] (codes input);
  Alcotest.(check (list string)) "in doubt warned" [ "2C002" ]
    (codes ~severity:Analysis.Diagnostic.Warning input)

let test_lint_2c003_commit_without_prepare () =
  let input =
    mk
      [
        CL.Begin { txn = 1; shards = [ 0; 1 ] };
        CL.Vote { txn = 1; shard = 0; yes = true };
        CL.Vote { txn = 1; shard = 1; yes = true };
        CL.Decide { txn = 1; decision = CL.Commit };
      ]
      [ (0, complete_shard 1); (1, [ W.Begin 1; W.Commit 1 ]) ]
  in
  Alcotest.(check (list string)) "lost prepare" [ "2C003" ] (codes input);
  (* a single-shard (one-phase) transaction never prepares: exempt *)
  let onephase = mk [] [ (0, [ W.Begin 4; W.Commit 4 ]); (1, []) ] in
  Alcotest.(check (list string)) "1PC exempt" [] (codes onephase)

let test_lint_2c004_mixed_outcomes () =
  let input =
    mk
      [
        CL.Begin { txn = 1; shards = [ 0; 1 ] };
        CL.Vote { txn = 1; shard = 0; yes = true };
        CL.Vote { txn = 1; shard = 1; yes = true };
        CL.Decide { txn = 1; decision = CL.Commit };
      ]
      [ (0, complete_shard 1); (1, [ W.Begin 1; W.Prepare 1; W.Abort 1 ]) ]
  in
  Alcotest.(check (list string)) "atomicity violation" [ "2C004" ]
    (codes input)

let test_lint_2c005_conflicting_decides () =
  let input =
    mk
      [
        CL.Begin { txn = 1; shards = [ 0 ] };
        CL.Vote { txn = 1; shard = 0; yes = true };
        CL.Decide { txn = 1; decision = CL.Commit };
        CL.Decide { txn = 1; decision = CL.Abort };
      ]
      [ (0, complete_shard 1); (1, []) ]
  in
  Alcotest.(check (list string)) "conflict" [ "2C005" ] (codes input)

let test_lint_2c006_premature_forget () =
  let early =
    mk
      [
        CL.Begin { txn = 1; shards = [ 0; 1 ] };
        CL.Vote { txn = 1; shard = 0; yes = true };
        CL.Vote { txn = 1; shard = 1; yes = true };
        CL.Decide { txn = 1; decision = CL.Commit };
        CL.Forget 1;
      ]
      [ (0, complete_shard 1); (1, [ W.Begin 1; W.Prepare 1 ]) ]
  in
  Alcotest.(check (list string)) "forgot before ack" [ "2C006" ] (codes early);
  let undecided = mk [ CL.Forget 3 ] [ (0, []); (1, []) ] in
  Alcotest.(check (list string)) "forget without decide" [ "2C006" ]
    (codes undecided)

let suite =
  [
    ("router: deterministic and in range", `Quick, test_router_deterministic);
    ("router: spreads items", `Quick, test_router_spreads);
    ("router: rejects zero shards", `Quick, test_router_invalid);
    ("fault spec: message kinds round-trip", `Quick, test_fault_spec_roundtrip);
    ("fault spec: errors name the token", `Quick, test_fault_spec_errors);
    ("coord log: codec round-trip", `Quick, test_coord_log_roundtrip);
    ("coord log: torn tail tolerated", `Quick, test_coord_log_torn_tail);
    ("net: faultless delivery", `Quick, test_net_faultless);
    ("net: total drop exhausts retries", `Quick, test_net_total_drop);
    ("net: partition may process", `Quick, test_net_partition_may_process);
    ("2pc: two-shard commit", `Quick, test_two_shard_commit);
    ("2pc: single shard commits one-phase", `Quick, test_one_phase_commit);
    ("2pc: shard count must match the files", `Quick, test_shard_count_mismatch);
    ("2pc: lost prepares decide abort", `Quick, test_lost_prepare_aborts);
    ("2pc: voluntary abort rolls back", `Quick, test_voluntary_abort);
    ( "2pc: stranded commit resolved at restart",
      `Quick,
      test_stranded_commit_resolved_at_restart );
    ("executor: sharded workload commits", `Quick, test_dist_executor_workload);
    ( "executor: cross-shard deadlock retries",
      `Quick,
      test_dist_executor_cross_shard_deadlock );
    ("crash matrix: every io point recovers", `Slow, test_crash_matrix);
    prop_crash_sweep_lints_clean;
    ("lint commit: clean protocol", `Quick, test_lint_clean_protocol);
    ("lint commit: 2C001", `Quick, test_lint_2c001_decide_without_votes);
    ("lint commit: 2C002", `Quick, test_lint_2c002_prepared_forever);
    ("lint commit: 2C003", `Quick, test_lint_2c003_commit_without_prepare);
    ("lint commit: 2C004", `Quick, test_lint_2c004_mixed_outcomes);
    ("lint commit: 2C005", `Quick, test_lint_2c005_conflicting_decides);
    ("lint commit: 2C006", `Quick, test_lint_2c006_premature_forget);
  ]
