(* The fault-tolerant executor: throughput under contention, overhead and
   robustness under injected disk faults, and the latency of the
   quarantine-and-repair path.  Every run is checked against the
   Transactions.Recovery model of the surviving log — a benchmark that
   also functions as a large seeded fault sweep. *)

module E = Storage.Engine
module X = Storage.Executor
module F = Storage.Fault
module W = Transactions.Workload

let fresh_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "executor_bench_%d_%d.db" (Unix.getpid ()) !n)

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; E.wal_path path ]

let workloads =
  [
    ("low (64 items, 20% writes)", { W.default with txns = 12; ops_per_txn = 8; items = 64; write_ratio = 0.2 });
    ("medium (16 items, 50% writes)", { W.default with txns = 12; ops_per_txn = 8; items = 16; write_ratio = 0.5 });
    ("high (6 items, 80% writes)", { W.default with txns = 12; ops_per_txn = 8; items = 6; write_ratio = 0.8 });
    ("hotspot (32 items, zipf 1.2)", { W.txns = 12; ops_per_txn = 8; items = 32; skew = 1.2; write_ratio = 0.5 });
  ]

let seeds () = List.init 8 (fun k -> 42 + !Bench_util.seed + k)

(* One seeded run: open (the fault budget may fire anywhere, including
   inside open or recovery), execute, close, then diff the reopened
   database against the model.  Returns ((stats, repairs, io retries)
   option, diverged), the engine's counters read before its close. *)
let run_once ?(metrics = Obs.Registry.noop) ~params ~spec ~seed () =
  let path = fresh_path () in
  let rng = Support.Rng.create seed in
  let specs = W.generate rng params in
  let moved = Bench_util.since metrics in
  let stats =
    match E.open_db ~faults:(F.spec_of_string spec) ~metrics path with
    | eng ->
        let stats =
          X.run ~config:{ X.default_config with seed } (X.engine eng) specs
        in
        let repairs = moved "engine.repairs" in
        let retries = moved "pager.io_retries" + moved "wal.io_retries" in
        if stats.X.crashed = None then
          (try E.close eng with F.Crash _ -> E.crash eng);
        Some (stats, repairs, retries)
    | exception F.Crash _ -> None
  in
  let diverged = X.model_divergence ~path <> None in
  cleanup path;
  (stats, diverged)

let contention () =
  Bench_util.note "Throughput under contention (no faults), 12 txns x 8 ops:";
  let rows =
    List.map
      (fun (label, params) ->
        let acc = Array.make 4 0. in
        let ms = ref 0. in
        List.iter
          (fun seed ->
            let (stats, diverged), elapsed =
              Bench_util.time_ms (fun () ->
                  run_once ~metrics:!Bench_util.registry ~params ~spec:"" ~seed ())
            in
            ms := !ms +. elapsed;
            assert (not diverged);
            match stats with
            | Some (s, _, _) ->
                acc.(0) <- acc.(0) +. float_of_int s.X.committed;
                acc.(1) <- acc.(1) +. float_of_int s.X.restarts;
                acc.(2) <- acc.(2) +. float_of_int s.X.deadlocks;
                acc.(3) <- acc.(3) +. float_of_int s.X.steps
            | None -> ())
          (seeds ());
        let n = float_of_int (List.length (seeds ())) in
        let kstep = 1000. *. acc.(0) /. Float.max 1. acc.(3) in
        Bench_util.record
          ~metric:(Printf.sprintf "exec_commits_per_kstep/%s" label)
          ~unit:"commits" kstep;
        [
          label;
          Bench_util.f1 (acc.(0) /. n);
          Bench_util.f1 (acc.(1) /. n);
          Bench_util.f1 (acc.(2) /. n);
          Bench_util.f1 (acc.(3) /. n);
          Bench_util.f1 kstep;
          Bench_util.ms (!ms /. n);
        ])
      workloads
  in
  Support.Table.print
    ~header:
      [ "workload"; "committed"; "restarts"; "deadlocks"; "steps";
        "commits/kstep"; "ms/run" ]
    rows;
  print_newline ()

let fault_matrix () =
  Bench_util.note
    "Fault sweep (medium contention), every run diffed against the model:";
  let specs =
    [
      ("none", "");
      ("torn 5%", "torn=0.05");
      ("flip 5%", "flip=0.05");
      ("eio 10%", "eio=0.1");
      ("mixed", "torn=0.03,flip=0.03,eio=0.08");
      ("crash budget", "crash=25");
    ]
  in
  let params = List.assoc "medium (16 items, 50% writes)" workloads in
  let rows =
    List.map
      (fun (label, base_spec) ->
        let committed = ref 0 and repairs = ref 0 and retries = ref 0 in
        let degraded = ref 0 and crashed = ref 0 and diverged = ref 0 in
        List.iter
          (fun seed ->
            let spec =
              if base_spec = "" then ""
              else Printf.sprintf "%s,seed=%d" base_spec seed
            in
            let stats, div =
              run_once ~metrics:!Bench_util.registry ~params ~spec ~seed ()
            in
            if div then incr diverged;
            match stats with
            | Some (s, r, io) ->
                committed := !committed + s.X.committed;
                repairs := !repairs + r;
                retries := !retries + io;
                if s.X.degraded then incr degraded;
                if s.X.crashed <> None then incr crashed
            | None -> incr crashed)
          (seeds ());
        Bench_util.record
          ~metric:(Printf.sprintf "exec_divergences/%s" label)
          ~unit:"count" (float_of_int !diverged);
        Bench_util.record
          ~metric:(Printf.sprintf "exec_repairs/%s" label)
          ~unit:"count" (float_of_int !repairs);
        [
          label;
          Bench_util.i !committed;
          Bench_util.i !repairs;
          Bench_util.i !retries;
          Bench_util.i !degraded;
          Bench_util.i !crashed;
          Bench_util.i !diverged;
        ])
      specs
  in
  Support.Table.print
    ~header:
      [ "faults"; "committed"; "repairs"; "io-retries"; "degraded";
        "crashed"; "diverged" ]
    rows;
  Bench_util.note "Shape check: the diverged column must be all zeroes.";
  print_newline ()

(* Quarantine-and-repair latency: populate a database, flip a byte in the
   first item-store page on disk, and time the reopen that detects the
   CRC mismatch and rebuilds the store from the log. *)
let repair_latency () =
  let path = fresh_path () in
  let eng = E.open_db path in
  for t = 1 to 8 do
    let txn = E.begin_txn eng in
    for k = 0 to 7 do
      E.write eng ~txn (Printf.sprintf "x%d" k) ((t * 100) + k)
    done;
    E.commit eng ~txn
  done;
  let before = E.items eng in
  E.close eng;
  (* the first allocated page holds the head of the item store *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd (Storage.Page.size + (Storage.Page.size / 2)) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.make 1 '\xff') 0 1);
  Unix.close fd;
  let moved = Bench_util.since Obs.Registry.noop in
  let eng, elapsed = Bench_util.time_ms (fun () -> E.open_db path) in
  let intact = E.items eng = before in
  let repairs = moved "engine.repairs" in
  E.close eng;
  cleanup path;
  Bench_util.record ~metric:"repair_reopen_ms" elapsed;
  Bench_util.note
    "Repair latency: reopen after an on-disk byte flip took %s ms (%d repair%s, state intact: %b)"
    (Bench_util.ms elapsed) repairs
    (if repairs = 1 then "" else "s")
    intact;
  print_newline ()

(* Observability overhead: the same medium-contention workload run with
   the default noop registry versus a live one.  Instruments resolve at
   construction and disabled histograms skip the clock, so the gate is
   tight: an enabled registry should cost low single-digit percent, and
   noop must be indistinguishable from the pre-instrumentation seed.
   Each seed runs a noop and a live pass back to back, in an order that
   alternates by seed and round, so neither side always runs second on
   a warmer heap; the figure is the median of the per-pair ratios. *)
let obs_overhead () =
  let params = List.assoc "medium (16 items, 50% writes)" workloads in
  let time metrics seed =
    snd (Bench_util.time_ms (fun () -> run_once ~metrics ~params ~spec:"" ~seed ()))
  in
  let rounds = 5 in
  List.iter (fun seed -> ignore (time Obs.Registry.noop seed : float)) (seeds ()) (* warmup *);
  let pairs =
    List.concat_map
      (fun round ->
        List.mapi
          (fun i seed ->
            let noop () = time Obs.Registry.noop seed
            and live () = time (Obs.Registry.create ()) seed in
            if (round + i) mod 2 = 0 then
              let d = noop () in
              (d, live ())
            else
              let e = live () in
              (noop (), e))
          (seeds ()))
      (List.init rounds Fun.id)
  in
  let median f = Support.Stats.median (Array.of_list (List.map f pairs)) in
  let disabled = median fst and enabled = median snd in
  let pct = 100. *. (median (fun (d, e) -> e /. Float.max 1e-9 d) -. 1.) in
  Bench_util.record ~metric:"obs_disabled_ms" disabled;
  Bench_util.record ~metric:"obs_enabled_ms" enabled;
  Bench_util.record ~metric:"obs_overhead_pct" ~unit:"percent" pct;
  Bench_util.note
    "Observability overhead (medium contention, median of %d interleaved pairs): noop %s ms, \
     live registry %s ms (%+.1f%%)"
    (List.length pairs) (Bench_util.ms disabled) (Bench_util.ms enabled) pct;
  print_newline ()

let run () =
  Bench_util.header "Fault-tolerant executor: locking, retry, and repair";
  ignore (Bench_util.fresh_registry () : Obs.Registry.t);
  contention ();
  fault_matrix ();
  repair_latency ();
  obs_overhead ()
