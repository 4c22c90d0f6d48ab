(* Sharded two-phase commit: commit latency as the shard count grows
   (more participants per transaction means more PREPARE/DECIDE
   exchanges), the cost of message loss (retries, decided aborts,
   stranded decisions), and the latency of the restart termination
   protocol that resolves in-doubt transactions from the coordinator's
   log.  Every cell is checked against the distributed recovery
   model. *)

module C = Distributed.Coordinator
module E = Storage.Engine
module X = Storage.Executor
module F = Storage.Fault
module W = Transactions.Workload

let fresh_base =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dist_bench_%d_%d.db" (Unix.getpid ()) !n)

let cleanup base shards =
  let rm p = if Sys.file_exists p then Sys.remove p in
  rm (C.coord_path base);
  for k = 0 to shards - 1 do
    rm (C.shard_path base k);
    rm (E.wal_path (C.shard_path base k))
  done

let params =
  { W.txns = 10; ops_per_txn = 6; items = 32; skew = 0.5; write_ratio = 0.6 }

let seeds () = List.init 6 (fun k -> 42 + !Bench_util.seed + k)

(* One seeded run over a fresh sharded database: open, drive the
   workload, close (or abandon after a crash), then model-check the
   survivor logs.  Returns (stats option, net ticks, stranded decisions,
   diverged). *)
let run_once ?(metrics = Obs.Registry.noop) ~shards ~spec ~seed () =
  let base = fresh_base () in
  let rng = Support.Rng.create seed in
  let specs = W.generate rng params in
  let stats, ticks, stranded =
    match C.open_dist ~shards ~faults:(F.spec_of_string spec) ~metrics base with
    | coord ->
        let stats =
          X.run ~config:{ X.default_config with seed } (C.backend coord) specs
        in
        let ticks = C.net_ticks coord in
        let stranded = List.length (C.stranded_txns coord) in
        if stats.X.crashed = None then
          (try C.close coord with F.Crash _ -> C.crash coord);
        (Some stats, ticks, stranded)
    | exception F.Crash _ -> (None, 0, 0)
  in
  let diverged = C.model_divergence ~path:base <> None in
  cleanup base shards;
  (stats, ticks, stranded, diverged)

(* Commit latency and throughput as the same workload spreads over
   1/2/4/8 shards.  One shard never leaves the one-phase fast path;
   every doubling raises the odds a transaction spans shards and pays
   the full PREPARE/VOTE/DECIDE round. *)
let shard_scaling () =
  Bench_util.note
    "Commit cost vs shard count, 10 txns x 6 ops over 32 items (no faults):";
  let rows =
    List.map
      (fun shards ->
        let committed = ref 0 and steps = ref 0 and ticks = ref 0 in
        let ms = ref 0. in
        List.iter
          (fun seed ->
            let (stats, run_ticks, _, diverged), elapsed =
              Bench_util.time_ms (fun () ->
                  run_once ~metrics:!Bench_util.registry ~shards ~spec:""
                    ~seed ())
            in
            ms := !ms +. elapsed;
            assert (not diverged);
            ticks := !ticks + run_ticks;
            match stats with
            | Some s ->
                committed := !committed + s.X.committed;
                steps := !steps + s.X.steps
            | None -> ())
          (seeds ());
        let n = float_of_int (List.length (seeds ())) in
        let per_commit =
          !ms /. Float.max 1. (float_of_int !committed)
        in
        Bench_util.record
          ~metric:(Printf.sprintf "dist_ms_per_commit/shards=%d" shards)
          per_commit;
        Bench_util.record
          ~metric:(Printf.sprintf "dist_net_ticks/shards=%d" shards)
          ~unit:"ticks"
          (float_of_int !ticks /. n);
        [
          Bench_util.i shards;
          Bench_util.f1 (float_of_int !committed /. n);
          Bench_util.f1 (float_of_int !steps /. n);
          Bench_util.f1 (float_of_int !ticks /. n);
          Bench_util.f3 per_commit;
          Bench_util.ms (!ms /. n);
        ])
      [ 1; 2; 4; 8 ]
  in
  Support.Table.print
    ~header:
      [ "shards"; "committed"; "steps"; "net ticks"; "ms/commit"; "ms/run" ]
    rows;
  print_newline ()

(* Message loss on a 2-shard database: dropped PREPAREs become decided
   aborts (the executor retries the program), dropped or partitioned
   DECIDEs strand until a nudge gets through — all visible as extra
   net ticks and restarts, never as divergence. *)
let loss_sweep () =
  Bench_util.note
    "Message-loss overhead, 2 shards, every run diffed against the model:";
  let specs =
    [
      ("none", "");
      ("drop 10%", "drop=0.1");
      ("drop 30%", "drop=0.3");
      ("partition 20%", "part=0.2");
      ("delay 30%", "delay=0.3");
    ]
  in
  let rows =
    List.map
      (fun (label, base_spec) ->
        let committed = ref 0 and caborts = ref 0 and restarts = ref 0 in
        let ticks = ref 0 and strand = ref 0 and diverged = ref 0 in
        List.iter
          (fun seed ->
            let spec =
              if base_spec = "" then ""
              else Printf.sprintf "%s,seed=%d" base_spec seed
            in
            let stats, run_ticks, stranded, div =
              run_once ~metrics:!Bench_util.registry ~shards:2 ~spec ~seed ()
            in
            if div then incr diverged;
            ticks := !ticks + run_ticks;
            strand := !strand + stranded;
            match stats with
            | Some s ->
                committed := !committed + s.X.committed;
                caborts := !caborts + s.X.commit_aborts;
                restarts := !restarts + s.X.restarts
            | None -> ())
          (seeds ());
        Bench_util.record
          ~metric:(Printf.sprintf "dist_commit_aborts/%s" label)
          ~unit:"count" (float_of_int !caborts);
        Bench_util.record
          ~metric:(Printf.sprintf "dist_divergences/%s" label)
          ~unit:"count" (float_of_int !diverged);
        [
          label;
          Bench_util.i !committed;
          Bench_util.i !caborts;
          Bench_util.i !restarts;
          Bench_util.i !strand;
          Bench_util.i !ticks;
          Bench_util.i !diverged;
        ])
      specs
  in
  Support.Table.print
    ~header:
      [ "faults"; "committed"; "commit-aborts"; "restarts"; "stranded";
        "net ticks"; "diverged" ]
    rows;
  Bench_util.note "Shape check: the diverged column must be all zeroes.";
  print_newline ()

(* Termination-protocol latency: strand a batch of decided commits by
   dropping every COMMIT message to shard 1, crash, and time the
   reopen that completes them offline from the coordinator's log. *)
let resolution_latency () =
  let base = fresh_base () in
  let shards = 2 in
  let coord =
    C.open_dist ~shards
      ~faults:(F.spec_of_string "drop@commit shard 1=1,seed=1")
      base
  in
  (* ten cross-shard transactions; each Decide(commit) is durable but
     undeliverable to shard 1, so each strands *)
  let stranded = ref 0 in
  for t = 1 to 10 do
    let txn = C.begin_txn coord in
    for k = 0 to 3 do
      C.write coord ~txn (Printf.sprintf "x%d" ((t * 4) + k)) t
    done;
    match C.commit coord ~txn with
    | C.Committed -> if C.is_stranded coord txn then incr stranded
    | C.Aborted _ -> ()
  done;
  C.crash coord;
  let coord, elapsed = Bench_util.time_ms (fun () -> C.open_dist base) in
  let completed, presumed = C.resolved coord in
  let intact = List.length (C.items coord) = 40 in
  C.close coord;
  cleanup base shards;
  Bench_util.record ~metric:"dist_resolve_reopen_ms" elapsed;
  Bench_util.record ~metric:"dist_resolved_commits" ~unit:"txns"
    (float_of_int completed);
  Bench_util.note
    "Resolution latency: reopen with %d stranded decision(s) took %s ms \
     (%d completed, %d presumed aborted, state intact: %b)"
    !stranded (Bench_util.ms elapsed) completed presumed intact;
  print_newline ()

let run () =
  Bench_util.header "Sharded atomic commit: 2PC under partitions and crashes";
  ignore (Bench_util.fresh_registry () : Obs.Registry.t);
  shard_scaling ();
  loss_sweep ();
  resolution_latency ()
