type config = {
  backends : Rsm.Backend.t list;
  plans : int;
  first_seed : int;
  n : int;
  clients : int;
  commands : int;
  batch : int;
  profile : Gen.profile;
  ack_timeout : int;
  max_events : int;
  trace_capacity : int;
  storage : bool;
}

let default_config ?(n = 5) () =
  {
    backends = [ Rsm.Backend.ben_or ];
    plans = 50;
    first_seed = 1;
    n;
    clients = 3;
    commands = 3;
    batch = 4;
    profile = Gen.default ~n;
    ack_timeout = 400;
    max_events = 400_000;
    trace_capacity = 2_000;
    storage = false;
  }

let safety_ok (r : _ Rsm.Runner.report) =
  r.Rsm.Runner.violations = [] && r.Rsm.Runner.digests_agree

let complete (r : _ Rsm.Runner.report) =
  r.Rsm.Runner.completeness = []
  && r.Rsm.Runner.acked = r.Rsm.Runner.submitted

let durable_ok (r : _ Rsm.Runner.report) = r.Rsm.Runner.durability = []

type outcome = {
  backend_name : string;
  plan_seed : int;
  plan : Plan.t;
  safety : bool;
  live : bool;
  durable : bool;
  acked : int;
  submitted : int;
  virtual_time : int;
  engine_outcome : Dsim.Engine.outcome;
}

type report = outcome Sweep.report

let safety_failures = Sweep.failures (fun o -> o.safety)
let incomplete = Sweep.failures (fun o -> o.live)
let durability_failures = Sweep.failures (fun o -> o.durable)

let run_plan ?(quiet = false) cfg ~backend ~seed plan =
  fst
    (Workload.Rsm_load.run_one ~n:cfg.n ~clients:cfg.clients
       ~commands:cfg.commands ~batch:cfg.batch ~seed
       ~trace_capacity:cfg.trace_capacity ~quiet ~ack_timeout:cfg.ack_timeout
       ~max_events:cfg.max_events
       ~inject:(Interp.install_rsm plan)
       ?store:
         (if cfg.storage then Some Rsm.Runner.default_store_config else None)
       ~backend ())

let plan_for cfg ~seed =
  Gen.generate
    { cfg.profile with n = cfg.n; storage = cfg.profile.storage || cfg.storage }
    ~seed

let run ?jobs ?on_outcome cfg =
  Sweep.run ?jobs ?on_outcome ~cells:cfg.backends ~first_seed:cfg.first_seed
    ~plans:cfg.plans (fun backend ~seed ->
      let plan = plan_for cfg ~seed in
      (* Sweep runs are quiet: nothing reads their traces, and skipping
         trace-string construction is most of the campaign's allocation.
         Replaying a single plan through [run_plan] still traces. *)
      let r = run_plan ~quiet:true cfg ~backend ~seed plan in
      {
        backend_name = Rsm.Backend.name backend;
        plan_seed = seed;
        plan;
        safety = safety_ok r;
        live = complete r;
        durable = durable_ok r;
        acked = r.Rsm.Runner.acked;
        submitted = r.Rsm.Runner.submitted;
        virtual_time = r.Rsm.Runner.virtual_time;
        engine_outcome = r.Rsm.Runner.engine_outcome;
      })

let pp_report_stable ppf r =
  Sweep.pp_faults "nemesis" (fun o -> [ o.plan ]) ppf r;
  Format.fprintf ppf
    "  safety failures: %d, incomplete runs: %d, durability failures: %d@."
    (List.length (safety_failures r))
    (List.length (incomplete r))
    (List.length (durability_failures r));
  let dump tag os =
    List.iter
      (fun o ->
        Format.fprintf ppf "  %s %s seed=%d (%d actions, %d/%d acked)@." tag
          o.backend_name o.plan_seed (Plan.length o.plan) o.acked o.submitted)
      os
  in
  dump "SAFETY" (safety_failures r);
  dump "DURABILITY" (durability_failures r)

let pp_report ppf r =
  pp_report_stable ppf r;
  Sweep.pp_timing ppf r
