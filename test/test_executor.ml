(* Tests for the fault-tolerant executor stack: lock manager unit tests
   (modes, FIFO queues, upgrades, deadlock victims, timeouts), QCheck
   properties (the no-conflicting-locks invariant under random traffic,
   cycle detection against an independent reachability checker, the
   victim policy against Simulation's survivor fold, and a seeded fault
   sweep checked against the Transactions.Recovery model), plus the
   robustness endgames: read-only degradation on an unflushable WAL and
   quarantine-and-repair after on-disk corruption. *)

module LM = Storage.Lock_manager
module E = Storage.Engine
module X = Storage.Executor
module F = Storage.Fault
module S = Transactions.Schedule

let tmp_counter = ref 0

let fresh_path () =
  incr tmp_counter;
  let dir = Filename.get_temp_dir_name () in
  let path =
    Filename.concat dir
      (Printf.sprintf "dbmeta_exec_test_%d_%d.db" (Unix.getpid ()) !tmp_counter)
  in
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; E.wal_path path ];
  path

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; E.wal_path path ]

(* A counter of the registry a test gave the engine, by name; 0 before
   it was registered. *)
let count metrics name =
  Option.value ~default:0 (Obs.Registry.counter_value metrics name)

let outcome_str = function
  | LM.Granted -> "granted"
  | LM.Blocked -> "blocked"
  | LM.Deadlock { victim; _ } -> Printf.sprintf "deadlock(victim %d)" victim

let check_outcome what expected actual =
  Alcotest.(check string) what (outcome_str expected) (outcome_str actual)

(* --- lock manager: modes and queues ------------------------------------ *)

let test_lock_shared_compatible () =
  let lm = LM.create () in
  check_outcome "t1 S" LM.Granted (LM.acquire lm ~txn:1 ~item:"x" LM.Shared);
  check_outcome "t2 S" LM.Granted (LM.acquire lm ~txn:2 ~item:"x" LM.Shared);
  Alcotest.(check int) "two holders" 2 (List.length (LM.holders lm ~item:"x"));
  Alcotest.(check bool) "invariant" true (LM.no_conflicts lm)

let test_lock_exclusive_conflicts () =
  let lm = LM.create () in
  check_outcome "t1 X" LM.Granted (LM.acquire lm ~txn:1 ~item:"x" LM.Exclusive);
  check_outcome "t2 S blocked" LM.Blocked (LM.acquire lm ~txn:2 ~item:"x" LM.Shared);
  check_outcome "t3 X blocked" LM.Blocked (LM.acquire lm ~txn:3 ~item:"x" LM.Exclusive);
  (* re-issuing while still blocked is idempotent *)
  check_outcome "t2 re-issue" LM.Blocked (LM.acquire lm ~txn:2 ~item:"x" LM.Shared);
  Alcotest.(check int) "queue length" 2 (List.length (LM.waiters lm ~item:"x"));
  LM.release_all lm ~txn:1;
  check_outcome "t2 now granted" LM.Granted (LM.acquire lm ~txn:2 ~item:"x" LM.Shared);
  Alcotest.(check bool) "invariant" true (LM.no_conflicts lm)

let test_lock_fifo_no_starvation () =
  (* S behind an earlier X waiter must queue even though it is compatible
     with the current S holder — FIFO prevents writer starvation *)
  let lm = LM.create () in
  check_outcome "t1 S" LM.Granted (LM.acquire lm ~txn:1 ~item:"x" LM.Shared);
  check_outcome "t2 X waits" LM.Blocked (LM.acquire lm ~txn:2 ~item:"x" LM.Exclusive);
  check_outcome "t3 S queues behind X" LM.Blocked
    (LM.acquire lm ~txn:3 ~item:"x" LM.Shared);
  LM.release_all lm ~txn:1;
  (* the writer goes first *)
  Alcotest.(check (option bool)) "t2 holds X" (Some true)
    (Option.map (fun m -> m = LM.Exclusive) (LM.holds lm ~txn:2 ~item:"x"));
  Alcotest.(check (option bool)) "t3 still waiting" None
    (Option.map (fun m -> m = LM.Shared) (LM.holds lm ~txn:3 ~item:"x"));
  LM.release_all lm ~txn:2;
  check_outcome "t3 finally granted" LM.Granted
    (LM.acquire lm ~txn:3 ~item:"x" LM.Shared)

let test_lock_upgrade () =
  let lm = LM.create () in
  check_outcome "t1 S" LM.Granted (LM.acquire lm ~txn:1 ~item:"x" LM.Shared);
  (* sole holder upgrades in place *)
  check_outcome "t1 S->X" LM.Granted (LM.acquire lm ~txn:1 ~item:"x" LM.Exclusive);
  Alcotest.(check bool) "holds X" true
    (LM.holds lm ~txn:1 ~item:"x" = Some LM.Exclusive);
  (* with a second reader the upgrade must wait *)
  let lm = LM.create () in
  ignore (LM.acquire lm ~txn:1 ~item:"x" LM.Shared);
  ignore (LM.acquire lm ~txn:2 ~item:"x" LM.Shared);
  check_outcome "contended upgrade blocks" LM.Blocked
    (LM.acquire lm ~txn:1 ~item:"x" LM.Exclusive);
  LM.release_all lm ~txn:2;
  check_outcome "upgrade after release" LM.Granted
    (LM.acquire lm ~txn:1 ~item:"x" LM.Exclusive)

let test_lock_deadlock_victim () =
  let lm = LM.create () in
  ignore (LM.acquire lm ~txn:1 ~item:"x" LM.Exclusive);
  ignore (LM.acquire lm ~txn:2 ~item:"y" LM.Exclusive);
  check_outcome "t1 waits for y" LM.Blocked (LM.acquire lm ~txn:1 ~item:"y" LM.Exclusive);
  (match LM.acquire lm ~txn:2 ~item:"x" LM.Exclusive with
  | LM.Deadlock { victim; cycle } ->
      (* default policy condemns the larger id *)
      Alcotest.(check int) "youngest victim" 2 victim;
      Alcotest.(check bool) "cycle covers both" true
        (List.sort compare cycle = [ 1; 2 ])
  | o -> Alcotest.failf "expected deadlock, got %s" (outcome_str o));
  (* the caller aborts the victim; the survivor then proceeds *)
  LM.release_all lm ~txn:2;
  check_outcome "survivor granted" LM.Granted
    (LM.acquire lm ~txn:1 ~item:"y" LM.Exclusive)

let test_lock_timeout () =
  let lm = LM.create ~timeout:2 () in
  ignore (LM.acquire lm ~txn:1 ~item:"x" LM.Exclusive);
  ignore (LM.acquire lm ~txn:2 ~item:"x" LM.Shared);
  Alcotest.(check (list int)) "tick 1" [] (LM.tick lm);
  Alcotest.(check (list int)) "tick 2" [] (LM.tick lm);
  Alcotest.(check (list int)) "expired" [ 2 ] (LM.tick lm);
  LM.release_all lm ~txn:2;
  Alcotest.(check (list int)) "quiet after abort" [] (LM.tick lm)

(* --- QCheck: the no-conflicting-locks invariant ------------------------- *)

let prop_no_conflicts =
  let open QCheck2 in
  let cmd_gen = Gen.(triple (int_range 0 9) (int_range 0 4) (int_range 0 2)) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"lock manager holds no conflicting locks"
       (Gen.list_size (Gen.int_range 0 60) cmd_gen)
       (fun cmds ->
         let lm = LM.create () in
         List.for_all
           (fun (kind, txn, it) ->
             let item = Printf.sprintf "i%d" it in
             (if kind >= 8 then LM.release_all lm ~txn
              else
                let mode = if kind mod 2 = 0 then LM.Shared else LM.Exclusive in
                match LM.acquire lm ~txn ~item mode with
                | LM.Granted | LM.Blocked -> ()
                | LM.Deadlock { victim; _ } -> LM.release_all lm ~txn:victim);
             LM.no_conflicts lm)
           cmds))

(* --- QCheck: cycle detection vs an independent checker ------------------ *)

let reachable edges src dst =
  let rec go seen = function
    | [] -> false
    | n :: rest ->
        if n = dst then true
        else if List.mem n seen then go seen rest
        else
          go (n :: seen)
            (List.filter_map (fun (a, b) -> if a = n then Some b else None) edges
            @ rest)
  in
  go []
    (List.filter_map (fun (a, b) -> if a = src then Some b else None) edges)

let has_cycle edges =
  List.exists (fun (n, _) -> reachable edges n n) edges

let genuine_cycle edges cycle =
  match cycle with
  | [] -> false
  | first :: _ ->
      let rec ring = function
        | [ last ] -> List.mem (last, first) edges
        | a :: (b :: _ as rest) -> List.mem (a, b) edges && ring rest
        | [] -> false
      in
      ring cycle

let prop_find_cycle =
  let open QCheck2 in
  let edge_gen = Gen.(pair (int_range 0 7) (int_range 0 7)) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"find_cycle = reachability on random graphs"
       (Gen.list_size (Gen.int_range 0 20) edge_gen)
       (fun edges ->
         match LM.find_cycle edges with
         | None -> not (has_cycle edges)
         | Some cycle -> has_cycle edges && genuine_cycle edges cycle))

(* --- QCheck: victim policy mirrors Simulation's survivor ---------------- *)

let prop_victim_pref =
  let open QCheck2 in
  (* transactions 0..n-1 with random incarnations; age ties base = id *)
  let gen = Gen.(list_size (int_range 2 8) (int_range 0 5)) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500
       ~name:"executor victim policy matches Simulation's survivor"
       gen
       (fun incarnations ->
         let inc = Array.of_list incarnations in
         let age t = (inc.(t), t) in
         let txns = List.init (Array.length inc) Fun.id in
         let victim =
           List.fold_left (X.victim_pref ~age) (List.hd txns) (List.tl txns)
         in
         (* Simulation.break_deadlock's survivor: highest incarnation,
            ties to the lowest base *)
         let survivor =
           List.fold_left
             (fun best t ->
               let ib, bb = age best and it, bt = age t in
               if it > ib || (it = ib && bt < bb) then t else best)
             (List.hd txns) (List.tl txns)
         in
         (* the victim is a global minimum of the survivor order: every
            pairwise contest condemns it again, and it never wins against
            the survivor *)
         victim <> survivor
         && List.for_all (fun t -> t = victim || X.victim_pref ~age victim t = victim) txns))

(* --- QCheck: seeded fault sweep against the recovery model -------------- *)

let fault_specs =
  [|
    "";
    "torn=0.05";
    "flip=0.05";
    "eio=0.1";
    "torn=0.03,flip=0.03,eio=0.08";
    "crash=11";
    "crash=23,torn=0.04";
  |]

let prop_fault_sweep =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30 ~name:"executor under faults = recovery model"
       (QCheck2.Gen.int_range 0 100_000) (fun seed ->
         let spec0 = fault_specs.(seed mod Array.length fault_specs) in
         let spec =
           if spec0 = "" then "" else Printf.sprintf "%s,seed=%d" spec0 seed
         in
         let path = fresh_path () in
         let rng = Support.Rng.create seed in
         let specs =
           Transactions.Workload.generate rng
             {
               Transactions.Workload.txns = 4;
               ops_per_txn = 5;
               items = 6;
               skew = 0.5;
               write_ratio = 0.6;
             }
         in
         (match E.open_db ~pool_size:4 ~faults:(F.spec_of_string spec) path with
         | eng ->
             let stats =
               X.run ~config:{ X.default_config with seed } (X.engine eng) specs
             in
             if stats.X.crashed = None then (
               try E.close eng with F.Crash _ -> E.crash eng)
         | exception F.Crash _ -> ());
         let ok = X.model_divergence ~path = None in
         cleanup path;
         ok))

(* --- executor: deadlock victims retry to completion --------------------- *)

let test_executor_deadlock_retry () =
  let path = fresh_path () in
  let eng = E.open_db ~pool_size:4 path in
  let specs =
    [| [ S.Write "x"; S.Write "y" ]; [ S.Write "y"; S.Write "x" ] |]
  in
  let stats =
    X.run ~config:{ X.default_config with seed = 7 } (X.engine eng) specs
  in
  E.close eng;
  Alcotest.(check int) "both commit" 2 stats.X.committed;
  Alcotest.(check bool) "at least one deadlock" true (stats.X.deadlocks >= 1);
  Alcotest.(check int) "restarts = deadlocks + timeouts" stats.X.restarts
    (stats.X.deadlocks + stats.X.timeouts);
  Alcotest.(check bool) "no divergence" true (X.model_divergence ~path = None);
  cleanup path

let test_executor_lock_timeout () =
  (* a tiny timeout turns ordinary waits into restarts, but everything
     still commits and still matches the model *)
  let path = fresh_path () in
  let eng = E.open_db ~pool_size:4 path in
  let rng = Support.Rng.create 3 in
  let specs =
    Transactions.Workload.generate rng
      { Transactions.Workload.default with txns = 4; ops_per_txn = 4; items = 3 }
  in
  let stats =
    X.run
      ~config:{ X.seed = 3; lock_timeout = Some 1 }
      (X.engine eng) specs
  in
  E.close eng;
  Alcotest.(check int) "all commit" 4 stats.X.committed;
  Alcotest.(check bool) "no divergence" true (X.model_divergence ~path = None);
  cleanup path

(* Two runs on one engine and one live registry: each run's stats are
   what that run added to the [exec.*] counters, not the registry's
   totals, so the second run does not report the first's work. *)
let test_executor_stats_per_run () =
  let path = fresh_path () and metrics = Obs.Registry.create () in
  let eng = E.open_db ~pool_size:4 ~metrics path in
  let count = count metrics in
  let exec_counts () =
    List.map count
      [ "exec.steps"; "exec.restarts"; "exec.deadlocks"; "exec.timeouts"; "exec.wasted_ops" ]
  in
  let run seed =
    let specs =
      Transactions.Workload.generate (Support.Rng.create seed)
        { Transactions.Workload.default with txns = 4; ops_per_txn = 4; items = 3 }
    in
    let before = exec_counts () in
    let s = X.run ~config:{ X.seed; lock_timeout = Some 1 } (X.engine eng) specs in
    Alcotest.(check int) "all commit" 4 s.X.committed;
    Alcotest.(check (list int)) "stats = what the run added"
      (List.map2 ( - ) (exec_counts ()) before)
      X.[ s.steps; s.restarts; s.deadlocks; s.timeouts; s.wasted_ops ];
    s
  in
  let first = run 3 in
  let second = run 4 in
  Alcotest.(check bool) "the first run stepped and restarted" true
    (first.X.steps > 0 && first.X.restarts > 0);
  Alcotest.(check int) "the registry holds both runs' steps"
    (first.X.steps + second.X.steps) (count "exec.steps");
  E.close eng;
  cleanup path

(* --- degradation: an unflushable WAL goes read-only --------------------- *)

let test_read_only_degradation () =
  let path = fresh_path () in
  (* commit a baseline without faults *)
  let eng = E.open_db path in
  let txn = E.begin_txn eng in
  E.write eng ~txn "a" 1;
  E.write eng ~txn "b" 2;
  E.commit eng ~txn;
  E.close eng;
  (* reopen with every WAL fsync failing: the first commit exhausts the
     retry budget and degrades the engine *)
  let spec = F.spec_of_string "eio@wal fsync=1,seed=1" in
  let eng = E.open_db ~faults:spec path in
  let txn = E.begin_txn eng in
  E.write eng ~txn "a" 99;
  (match E.commit eng ~txn with
  | () -> Alcotest.fail "commit should have degraded the engine"
  | exception E.Read_only reason ->
      Alcotest.(check bool) "reason names the site" true
        (String.length reason > 0));
  Alcotest.(check bool) "read-only" true (E.read_only eng);
  Alcotest.(check bool) "reason recorded" true (E.degraded_reason eng <> None);
  (* reads survive degradation; being a steal engine they still see the
     in-doubt transaction's write — restart recovery rolls it back *)
  Alcotest.(check int) "read a (in doubt)" 99 (E.read eng "a");
  Alcotest.(check int) "read b" 2 (E.read eng "b");
  (* further write transactions are refused outright *)
  (match E.begin_txn eng with
  | _ -> Alcotest.fail "begin_txn should be refused when read-only"
  | exception E.Read_only _ -> ());
  E.close eng;
  (* the in-doubt transaction is a loser at restart: the baseline wins *)
  let eng = E.open_db path in
  Alcotest.(check (list (pair string int))) "baseline intact"
    [ ("a", 1); ("b", 2) ]
    (E.items eng);
  E.close eng;
  cleanup path

(* --- repair: on-disk corruption is quarantined and rebuilt -------------- *)

let test_quarantine_and_repair () =
  let path = fresh_path () in
  let eng = E.open_db path in
  for t = 1 to 4 do
    let txn = E.begin_txn eng in
    for k = 0 to 5 do
      E.write eng ~txn (Printf.sprintf "x%d" k) ((t * 10) + k)
    done;
    E.commit eng ~txn
  done;
  let before = E.items eng in
  E.close eng;
  (* flip a byte inside the first item-store page *)
  Fixtures.edit_file path ~off:(Storage.Page.size + (Storage.Page.size / 2)) ~len:1
    (fun b -> Bytes.set b 0 '\xff');
  let metrics = Obs.Registry.create () in
  let eng = E.open_db ~metrics path in
  Alcotest.(check bool) "at least one repair" true (count metrics "engine.repairs" >= 1);
  (match E.last_repair eng with
  | Some r ->
      Alcotest.(check bool) "quarantined a page" true (r.E.quarantined <> []);
      Alcotest.(check bool) "replayed writes" true (r.E.replayed > 0)
  | None -> Alcotest.fail "expected a recorded repair");
  Alcotest.(check (list (pair string int))) "state rebuilt from log" before
    (E.items eng);
  E.close eng;
  cleanup path

let suite =
  [
    Alcotest.test_case "lock/shared compatible" `Quick test_lock_shared_compatible;
    Alcotest.test_case "lock/exclusive conflicts" `Quick test_lock_exclusive_conflicts;
    Alcotest.test_case "lock/fifo no starvation" `Quick test_lock_fifo_no_starvation;
    Alcotest.test_case "lock/upgrade" `Quick test_lock_upgrade;
    Alcotest.test_case "lock/deadlock victim" `Quick test_lock_deadlock_victim;
    Alcotest.test_case "lock/timeout" `Quick test_lock_timeout;
    prop_no_conflicts;
    prop_find_cycle;
    prop_victim_pref;
    prop_fault_sweep;
    Alcotest.test_case "executor/deadlock retry" `Quick test_executor_deadlock_retry;
    Alcotest.test_case "executor/lock timeout" `Quick test_executor_lock_timeout;
    Alcotest.test_case "executor/stats per run" `Quick test_executor_stats_per_run;
    Alcotest.test_case "engine/read-only degradation" `Quick test_read_only_degradation;
    Alcotest.test_case "engine/quarantine and repair" `Quick test_quarantine_and_repair;
  ]
