(* The simulated message layer between coordinator and shards.  A
   "message" is a named exchange: the sender proposes a site (e.g.
   ["prepare shard 0"]), the fault injector draws what the link does,
   and on delivery the receiver's handler runs in-process.

   Fault semantics, per attempt:
     - drop — the request is lost; the handler never runs.
     - part — the link is partitioned and one direction (drawn by coin
       flip) carries the loss: either the request is lost, or the
       handler runs and the response is lost.  The sender cannot tell
       which, which is the whole difficulty of atomic commit.
     - delay — delivery is late by a drawn number of ticks; past the
       sender's timeout the handler still runs but the response is
       discarded (an exchange indistinguishable from a lost response).

   Lost exchanges are retried with the executor's policy: bounded
   exponential backoff with seeded jitter.  Handlers therefore MUST be
   idempotent — a retry may re-run a handler whose response was lost.
   Time is a virtual tick count; delays and backoff only advance it. *)

module Fault = Storage.Fault

type config = {
  msg_timeout : int;  (* ticks before one attempt is given up *)
  max_attempts : int;  (* send attempts per exchange *)
  max_backoff : int;  (* cap on the backoff window, in ticks *)
}

let default_config = { msg_timeout = 8; max_attempts = 6; max_backoff = 64 }

type metrics = {
  m_msgs : Obs.Registry.Counter.t;
  m_retries : Obs.Registry.Counter.t;
  m_lost : Obs.Registry.Counter.t;
  h_backoff : Obs.Histogram.t;
}

let make_metrics registry prefix =
  let counter = Obs.Registry.counter registry in
  let name suffix = prefix ^ "." ^ suffix in
  {
    m_msgs =
      counter ~unit:"msgs" ~help:"message exchanges attempted" (name "msgs");
    m_retries =
      counter ~unit:"msgs" ~help:"message attempts retried after a loss"
        (name "msg_retries");
    m_lost =
      counter ~unit:"msgs"
        ~help:"exchanges lost (dropped, partitioned, or over-delayed)"
        (name "msg_lost");
    h_backoff =
      Obs.Registry.histogram registry ~unit:"ticks"
        ~help:"backoff drawn per message retry" (name "backoff_ticks");
  }

(* The coordinator's channel and a replication group's shipping one. *)
let () =
  List.iter
    (fun prefix -> ignore (make_metrics Obs.Registry.declared prefix))
    [ "2pc"; "repl" ]

type t = {
  fault : Fault.t;
  config : config;
  rng : Support.Rng.t;
  mutable ticks : int;
  metrics : metrics;
}

type 'a reply = Reply of 'a | Lost of { processed : bool }

let create ?(metrics = Obs.Registry.noop) ?(prefix = "2pc") ~fault ~seed config =
  {
    fault;
    config;
    rng = Support.Rng.create seed;
    ticks = 0;
    metrics = make_metrics metrics prefix;
  }

let ticks t = t.ticks

let lost t ~processed =
  (* the sender waited its timeout out before giving up on the reply *)
  t.ticks <- t.ticks + t.config.msg_timeout;
  Obs.Registry.Counter.incr t.metrics.m_lost;
  Lost { processed }

(* One attempt: draw the link's behaviour, maybe run the handler. *)
let once t ~site handler =
  Obs.Registry.Counter.incr t.metrics.m_msgs;
  if Fault.partitioned t.fault ~at:site then
    if Fault.flip_coin t.fault then lost t ~processed:false
    else begin
      let (_ : 'a) = handler () in
      lost t ~processed:true
    end
  else if Fault.dropped t.fault ~at:site then lost t ~processed:false
  else
    match
      Fault.delay_ticks t.fault ~at:site ~max:(2 * t.config.msg_timeout)
    with
    | Some d when d > t.config.msg_timeout ->
        (* late: the receiver acted, but the sender already gave up *)
        let (_ : 'a) = handler () in
        lost t ~processed:true
    | Some d ->
        t.ticks <- t.ticks + d;
        Reply (handler ())
    | None ->
        t.ticks <- t.ticks + 1;
        Reply (handler ())

(* The full exchange: retry lost attempts with bounded exponential
   backoff + seeded jitter (the executor's policy). *)
let call t ~site handler =
  let rec go attempt processed_any =
    match once t ~site handler with
    | Reply x -> Ok x
    | Lost { processed } ->
        let processed_any = processed_any || processed in
        if attempt >= t.config.max_attempts then Error processed_any
        else begin
          Obs.Registry.Counter.incr t.metrics.m_retries;
          let window = min t.config.max_backoff (1 lsl min 6 attempt) in
          let delay = 1 + Support.Rng.int t.rng window in
          Obs.Histogram.observe t.metrics.h_backoff delay;
          t.ticks <- t.ticks + delay;
          go (attempt + 1) processed_any
        end
  in
  go 1 false
