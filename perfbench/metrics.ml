(* Every metric the benchmark reports, with its unit.  BENCHMARK.json
   lists the same names; the self-test (run.py --selftest) fails when
   the two disagree.

   End-to-end metrics are reported by every workload with tracing off.
   Per-layer metrics come from a traced run; every workload reports
   every name, and a layer the workload does not exercise reads 0. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("cpu_s", "s");
    ("peak_heap_mb", "MB");
  ]

let per_layer () =
  [
    (* threshold: packet, fluid and hybrid sweeps *)
    ("packets_per_s", "pkt/s");
    ("fluid.sim_s_per_s", "sim-s/s");
    ("hybrid.sim_s_per_s", "sim-s/s");
    ("event_queue.pop_ns", "ns");
    ("event_queue.events_per_packet", "count");
    ("event_queue.peak_pending", "count");
    ("cca.ns_per_packet", "ns");
    ("cca.on_ack_ns", "ns");
    ("cca.ns_per_ack", "ns");
    ("cca.calls_per_packet", "count");
    ("network.other_ns_per_packet", "ns");
    ("link.queue_peak_pkts", "pkt");
    ("flow.inflight_peak_pkts", "pkt");
    ("delay_line.fallbacks", "count");
    ("gc.minor_words_per_packet", "words");
    ("gc.major_collections", "count");
    ("fluid_engine.steps", "count");
    ("fluid_engine.ns_per_step", "ns");
    ("hybrid.packet_share", "ratio");
    ("hybrid.handoffs", "count");
    ("hybrid.conservation_error_bytes", "B");
    (* census: packet and fluid populations *)
    ("flows_per_s", "flows/s");
    ("fluid.flows_per_s", "flows/s");
    ("bytes_per_flow", "B");
    ("population.other_ns_per_flow", "ns");
    ("population.slots", "count");
    ("population.peak_active", "count");
    ("population.peak_pending", "count");
    ("population.table_capacity", "count");
    ("gc.minor_words_per_flow", "words");
    ("fluid_census.steps", "count");
    ("fluid_census.ns_per_step", "ns");
  ]
  (* suite: the registry through the runner *)
  @ List.map
      (fun k -> (Printf.sprintf "experiments.%s.cpu_s" k, "s"))
      (Experiments.Registry.keys ())
  @ [
      ("experiments.merge_s", "s");
      ("runner_pool.critical_path_s", "s");
      ("runner_pool.efficiency", "ratio");
      ("runner_pool.respawns", "count");
      ("runner_cache.stores", "count");
      ("runner_cache.warm_replay_s", "s");
      (* every workload *)
      ("trace.clock_ns", "ns");
      ("trace.overhead_frac", "ratio");
      ("trace.unexplained_frac", "ratio");
      ("trace.residual_frac", "ratio");
    ]
