(* Primary/replica WAL shipping: what a commit costs as the replica
   count grows under quorum vs async acknowledgement, what a lagging
   replica's catch-up costs (log tail vs full snapshot), and what a
   failover costs end to end (promotion + healing the deposed
   primary).  Every quorum run is audited with the replication lint —
   a bench row from a diverged group would be measuring a bug. *)

module G = Replication.Group
module M = Replication.Repl_meta
module E = Storage.Engine
module F = Storage.Fault
module W = Transactions.Workload
module X = Storage.Executor

let fresh_base =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "repl_bench_%d_%d.db" (Unix.getpid ()) !n)

let cleanup base =
  let rm p = if Sys.file_exists p then Sys.remove p in
  rm (M.group_path base);
  rm (M.acks_path base);
  for k = 0 to 8 do
    let p = M.node_path base k in
    rm p;
    rm (E.wal_path p);
    rm (M.epoch_path p)
  done

let params =
  { W.txns = 12; ops_per_txn = 5; items = 32; skew = 0.5; write_ratio = 0.6 }

let seeds () = List.init 5 (fun k -> 42 + !Bench_util.seed + k)

(* Drive the workload through the shared SS2PL scheduler; returns how
   many of its commits the group acknowledged. *)
let drive g programs =
  let acked_before, _ = G.commits g in
  let stats = X.run (G.backend g) programs in
  assert (stats.X.committed = Array.length programs);
  fst (G.commits g) - acked_before

let lint_clean base =
  not
    (Analysis.Diagnostic.has_errors (Analysis.Replication_lint.lint_base base))

(* Commit latency as the group widens: every quorum commit pays one
   reliable exchange per replica before it acks; async acks locally and
   ships best-effort, so its commit cost should stay near-flat. *)
let commit_cost () =
  Bench_util.note
    "Commit cost vs replica count, 12 txns x 5 ops (no faults):";
  let rows =
    List.concat_map
      (fun sync ->
        List.map
          (fun replicas ->
            let acked = ref 0 and ticks = ref 0 and ms = ref 0. in
            List.iter
              (fun seed ->
                let base = fresh_base () in
                let programs = W.generate (Support.Rng.create seed) params in
                let g =
                  G.open_group ~replicas ~sync ~metrics:!Bench_util.registry
                    base
                in
                let a, elapsed =
                  Bench_util.time_ms (fun () ->
                      let a = drive g programs in
                      G.close g;
                      a)
                in
                acked := !acked + a;
                ticks := !ticks + G.net_ticks g;
                ms := !ms +. elapsed;
                assert (lint_clean base);
                cleanup base)
              (seeds ());
            let n = float_of_int (List.length (seeds ())) in
            let label = M.sync_mode_to_string sync in
            let per_commit =
              !ms /. Float.max 1. (float_of_int (params.W.txns * List.length (seeds ())))
            in
            Bench_util.record
              ~metric:
                (Printf.sprintf "repl_ms_per_commit/replicas=%d/sync=%s"
                   replicas label)
              per_commit;
            Bench_util.record
              ~metric:
                (Printf.sprintf "repl_net_ticks/replicas=%d/sync=%s" replicas
                   label)
              ~unit:"ticks"
              (float_of_int !ticks /. n);
            [
              label;
              Bench_util.i replicas;
              Bench_util.f1 (float_of_int !acked /. n);
              Bench_util.f1 (float_of_int !ticks /. n);
              Bench_util.f3 per_commit;
              Bench_util.ms (!ms /. n);
            ])
          [ 1; 2; 4 ])
      [ M.Quorum; M.Async ]
  in
  Support.Table.print
    ~header:[ "sync"; "replicas"; "acked"; "net ticks"; "ms/commit"; "ms/run" ]
    rows;
  print_newline ()

(* Catch-up: run the workload with the shipping link fully dark (every
   message dropped), so the replica ends the run at lag = the whole
   log; then heal the link and time the catch-up that closes it. *)
let catchup_cost () =
  Bench_util.note
    "Catch-up latency after a dark shipping link (replica at full lag):";
  let rows =
    List.map
      (fun seed ->
        let base = fresh_base () in
        let programs = W.generate (Support.Rng.create seed) params in
        let g =
          G.open_group ~replicas:1 ~sync:M.Async
            ~faults:
              (F.spec_of_string
                 (Printf.sprintf "drop@replica=1,seed=%d" seed))
            ~metrics:!Bench_util.registry base
        in
        ignore (drive g programs : int);
        let lag = G.lag g in
        F.configure (G.fault g) F.no_faults;
        (* one-shot timing: the second catch-up would be a no-op *)
        let (), catchup_ms = Bench_util.time_ms (fun () -> G.catch_up g) in
        let healed = G.lag g in
        G.close g;
        assert (healed = 0);
        assert (lint_clean base);
        cleanup base;
        Bench_util.record
          ~metric:(Printf.sprintf "repl_catchup_ms/seed=%d" seed)
          catchup_ms;
        [
          Bench_util.i seed;
          Bench_util.i lag;
          Bench_util.f3 catchup_ms;
        ])
      (seeds ())
  in
  Support.Table.print ~header:[ "seed"; "lag bytes"; "catch-up ms" ] rows;
  print_newline ()

(* Failover: crash the primary of a 3-node group mid-life, promote the
   most-advanced replica, and heal the deposed primary by snapshot.
   The epoch bump and the snapshot dominate; post-failover commits
   must still reach quorum. *)
let failover_cost () =
  Bench_util.note "Failover latency, 3 nodes (promotion + healing):";
  let rows =
    List.map
      (fun seed ->
        let base = fresh_base () in
        let programs = W.generate (Support.Rng.create seed) params in
        let g =
          G.open_group ~replicas:2 ~sync:M.Quorum
            ~metrics:!Bench_util.registry base
        in
        ignore (drive g programs : int);
        let (winner, failover_ms) =
          Bench_util.time_ms (fun () -> G.failover g)
        in
        let (), heal_ms = Bench_util.time_ms (fun () -> G.catch_up g) in
        let post = drive g (W.generate (Support.Rng.create (seed + 1)) params) in
        G.close g;
        assert (post = params.W.txns);
        assert (lint_clean base);
        cleanup base;
        Bench_util.record
          ~metric:(Printf.sprintf "repl_failover_ms/seed=%d" seed)
          failover_ms;
        [
          Bench_util.i seed;
          Bench_util.i winner;
          Bench_util.f3 failover_ms;
          Bench_util.f3 heal_ms;
          Bench_util.i post;
        ])
      (seeds ())
  in
  Support.Table.print
    ~header:[ "seed"; "winner"; "failover ms"; "heal ms"; "post-acked" ]
    rows;
  print_newline ()

let run () =
  Bench_util.header "Replication: WAL shipping, catch-up, failover";
  ignore (Bench_util.fresh_registry () : Obs.Registry.t);
  commit_cost ();
  catchup_cost ();
  failover_cost ()
