(* Round-robin SS2PL executor over any transactional backend; see the
   .mli for the policy discussion.  The structure deliberately parallels
   Transactions.Simulation.run so the two drivers can be compared.

   Two hooks exist for 2PC.  A transaction whose decision has not
   reached every shard is [unsettled]: it keeps its scheduler locks (the
   shards still hold theirs) until a [settle] delivers the decision.
   The scheduler settles once per round and once at the end, and
   releases deferred locks as transactions become settled.  For an
   engine or a replication group both hooks are inert. *)

module Schedule = Transactions.Schedule

type config = { lock_timeout : int option; seed : int }

let default_config = { lock_timeout = None; seed = 0 }

(* the livelock bound on operation attempts *)
let max_steps = 200_000

type outcome = Committed | Aborted

type backend = {
  begin_txn : unit -> int;
  read : string -> int;
  write : txn:int -> string -> int -> unit;
  commit : txn:int -> outcome;
  abort : txn:int -> unit;
  crash : unit -> unit;
  settle : unit -> unit;
  unsettled : int -> bool;
  degraded : unit -> bool;
  fault : Fault.t;
  metrics : Obs.Registry.t;
  trace : Obs.Trace.t;
}

let engine eng =
  {
    begin_txn = (fun () -> Engine.begin_txn eng);
    read = Engine.read eng;
    write = Engine.write eng;
    commit =
      (fun ~txn ->
        Engine.commit eng ~txn;
        Committed);
    abort = Engine.abort eng;
    crash = (fun () -> Engine.crash eng);
    settle = ignore;
    unsettled = (fun _ -> false);
    degraded = (fun () -> Engine.read_only eng);
    fault = Engine.fault eng;
    metrics = Engine.metrics eng;
    trace = Engine.trace eng;
  }

type stats = {
  committed : int;
  restarts : int;
  deadlocks : int;
  timeouts : int;
  commit_aborts : int;
  steps : int;
  wasted_ops : int;
  degraded : bool;
  crashed : Fault.crash_info option;
}

let throughput stats =
  if stats.steps = 0 then 0.
  else float_of_int stats.committed /. float_of_int stats.steps

(* Simulation.break_deadlock keeps the highest incarnation (ties to the
   lowest base); the victim of a pair is whichever would not survive.
   (incarnation desc, base asc) is a total order, so folding this
   pairwise choice over a cycle picks the same victim Simulation's
   survivor scan implies. *)
let victim_pref ~age a b =
  let ia, ba = age a and ib, bb = age b in
  if ia > ib || (ia = ib && ba < bb) then b else a

type slot = {
  base : int;
  program : Schedule.action array;
  mutable txn : int option;  (* backend transaction id, fresh per incarnation *)
  mutable incarnation : int;
  mutable pc : int;
  mutable finished : bool;
  mutable delay : int;  (* rounds to sit out after a restart (backoff) *)
  mutable started_ns : int;  (* incarnation start, for the txn trace event *)
}

type metrics = {
  m_steps : Obs.Registry.Counter.t;
  m_restarts : Obs.Registry.Counter.t;
  m_deadlocks : Obs.Registry.Counter.t;
  m_timeouts : Obs.Registry.Counter.t;
  m_wasted : Obs.Registry.Counter.t;
  m_backoff : Obs.Histogram.t;
}

let make_metrics registry =
  let counter = Obs.Registry.counter registry in
  {
    m_steps =
      counter ~unit:"attempts" ~help:"operation attempts (scheduler steps)"
        "exec.steps";
    m_restarts =
      counter ~unit:"restarts"
        ~help:"victim aborts (deadlock + timeout) and decided commit aborts"
        "exec.restarts";
    m_deadlocks =
      counter ~unit:"restarts" ~help:"restarts caused by waits-for cycles"
        "exec.deadlocks";
    m_timeouts =
      counter ~unit:"restarts" ~help:"restarts caused by lock-wait timeout"
        "exec.timeouts";
    m_wasted =
      counter ~unit:"ops" ~help:"operations re-executed after restarts"
        "exec.wasted_ops";
    m_backoff =
      Obs.Registry.histogram registry ~unit:"rounds"
        ~help:"backoff drawn per restart" "exec.backoff_rounds";
  }

let () = ignore (make_metrics Obs.Registry.declared)

let run ?(config = default_config) b specs =
  let rng = Support.Rng.create config.seed in
  let { m_steps; m_restarts; m_deadlocks; m_timeouts; m_wasted; m_backoff } =
    make_metrics b.metrics
  in
  (* a count of this run: what it added to the instrument, which other
     runs on the same registry add to as well *)
  let this_run c =
    let at_entry = Obs.Registry.Counter.value c in
    fun () -> Obs.Registry.Counter.value c - at_entry
  in
  let steps = this_run m_steps and restarts = this_run m_restarts in
  let deadlocks = this_run m_deadlocks and timeouts = this_run m_timeouts in
  let wasted = this_run m_wasted in
  let emit_txn slot id ~outcome =
    let now = Obs.Trace.now b.trace in
    Obs.Trace.emit b.trace ~tid:(slot.base + 1)
      ~args:
        [
          ("txn", string_of_int id);
          ("incarnation", string_of_int slot.incarnation);
          ("outcome", outcome);
        ]
      ~name:"exec.txn" ~start_ns:slot.started_ns
      ~dur_ns:(now - slot.started_ns) ()
  in
  let slots =
    Array.mapi
      (fun i spec ->
        {
          base = i;
          program = Array.of_list spec;
          txn = None;
          incarnation = 0;
          pc = 0;
          finished = false;
          delay = 0;
          started_ns = 0;
        })
      specs
  in
  let by_txn = Hashtbl.create 16 in
  let age txn =
    match Hashtbl.find_opt by_txn txn with
    | Some s -> (s.incarnation, s.base)
    | None -> (0, txn)
  in
  let lm =
    Lock_manager.create ?timeout:config.lock_timeout
      ~victim_pref:(victim_pref ~age) ~metrics:b.metrics ()
  in
  let commit_aborts = ref 0 in
  let committed = ref 0 in
  let stopped = ref false in
  (* unique written values make the log's committed projection sharp *)
  let next_value = ref 0 in
  (* retired but unsettled transactions, whose locks are still held *)
  let deferred = ref [] in
  let drain_deferred () =
    deferred :=
      List.filter
        (fun txn ->
          b.unsettled txn
          || begin
               Lock_manager.release_all lm ~txn;
               false
             end)
        !deferred
  in
  let ensure_started slot =
    match slot.txn with
    | Some id -> id
    | None ->
        let id = b.begin_txn () in
        slot.txn <- Some id;
        slot.started_ns <- Obs.Trace.now b.trace;
        Hashtbl.replace by_txn id slot;
        id
  in
  let retire slot id =
    if b.unsettled id then deferred := id :: !deferred
    else Lock_manager.release_all lm ~txn:id;
    Hashtbl.remove by_txn id;
    slot.txn <- None
  in
  (* count the restart, then sit out a bounded exponential backoff with
     seeded jitter, as Simulation does *)
  let backoff slot =
    Obs.Registry.Counter.incr m_restarts;
    Obs.Registry.Counter.add m_wasted slot.pc;
    slot.pc <- 0;
    slot.incarnation <- slot.incarnation + 1;
    let window = 1 lsl min 6 slot.incarnation in
    slot.delay <- 1 + Support.Rng.int rng window;
    Obs.Histogram.observe m_backoff slot.delay
  in
  let restart slot why =
    (match slot.txn with
    | Some id ->
        emit_txn slot id
          ~outcome:(match why with `Deadlock -> "deadlock" | `Timeout -> "timeout");
        b.abort ~txn:id;
        retire slot id
    | None -> ());
    Obs.Registry.Counter.incr
      (match why with `Deadlock -> m_deadlocks | `Timeout -> m_timeouts);
    backoff slot
  in
  let restart_txn victim why =
    match Hashtbl.find_opt by_txn victim with
    | Some slot -> restart slot why
    | None -> ()  (* already gone (raced with its own restart) *)
  in
  let commit_slot slot id =
    match b.commit ~txn:id with
    | Committed ->
        emit_txn slot id ~outcome:"commit";
        retire slot id;
        slot.finished <- true;
        incr committed
    | Aborted ->
        (* the backend already undid the work (or left the undo to
           restart recovery): retry the whole program after backoff *)
        emit_txn slot id ~outcome:"commit_abort";
        incr commit_aborts;
        retire slot id;
        backoff slot
    | exception Engine.Read_only _ ->
        (* in doubt: leave the transaction active; restart recovery will
           settle it.  Nothing more can commit — stop the run. *)
        stopped := true
  in
  let attempt slot =
    Obs.Registry.Counter.incr m_steps;
    let id = ensure_started slot in
    if slot.pc >= Array.length slot.program then commit_slot slot id
    else
      match slot.program.(slot.pc) with
      | Schedule.Commit -> commit_slot slot id
      | Schedule.Abort ->
          emit_txn slot id ~outcome:"abort";
          b.abort ~txn:id;
          retire slot id;
          slot.finished <- true
      | (Schedule.Read item | Schedule.Write item) as op -> (
          let mode =
            match op with
            | Schedule.Read _ -> Lock_manager.Shared
            | _ -> Lock_manager.Exclusive
          in
          match Lock_manager.acquire lm ~txn:id ~item mode with
          | Lock_manager.Granted -> (
              match
                match op with
                | Schedule.Read _ -> ignore (b.read item : int)
                | _ ->
                    incr next_value;
                    b.write ~txn:id item !next_value
              with
              | () -> slot.pc <- slot.pc + 1
              | exception Engine.Locked _ ->
                  (* held below us by an unsettled transaction the lock
                     manager no longer tracks: settle and retry *)
                  b.settle ())
          | Lock_manager.Blocked -> ()
          | Lock_manager.Deadlock { victim; _ } -> restart_txn victim `Deadlock)
  in
  let all_done () = Array.for_all (fun s -> s.finished) slots in
  (try
     while (not (all_done ())) && (not !stopped) && steps () < max_steps do
       Array.iter
         (fun slot ->
           if (not slot.finished) && not !stopped then
             if slot.delay > 0 then slot.delay <- slot.delay - 1
             else
               try attempt slot
               with Engine.Read_only _ -> stopped := true)
         slots;
       if not !stopped then begin
         b.settle ();
         drain_deferred ();
         List.iter (fun t -> restart_txn t `Timeout) (Lock_manager.tick lm)
       end
     done;
     (* give unsettled transactions a final chance before the run ends *)
     if not !stopped then begin
       b.settle ();
       drain_deferred ()
     end
   with Fault.Crash _ -> b.crash ());
  {
    committed = !committed;
    restarts = restarts ();
    deadlocks = deadlocks ();
    timeouts = timeouts ();
    commit_aborts = !commit_aborts;
    steps = steps ();
    wasted_ops = wasted ();
    degraded = b.degraded ();
    crashed = Fault.crashed_at b.fault;
  }

let committed_items ?(decided = []) records =
  let committed =
    List.filter_map (function Wal.Commit x -> Some x | _ -> None) records
  in
  let synthetic =
    List.filter (fun x -> not (List.mem x committed)) decided
    |> List.map (fun x -> Transactions.Recovery.Commit x)
  in
  Transactions.Recovery.committed_state (Wal.to_model records @ synthetic)
  |> List.filter (fun (_, v) -> v <> 0)
  |> List.sort compare

let model_divergence ~path =
  let expected =
    committed_items
      (List.map
         (fun e -> e.Wal.record)
         (Wal.read_entries (Engine.wal_path path)))
  in
  let eng = Engine.open_db path in
  let actual = Engine.items eng in
  Engine.close eng;
  if expected = actual then None else Some (expected, actual)
