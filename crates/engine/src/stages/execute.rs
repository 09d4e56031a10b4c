//! Stage 3: execution.
//!
//! Execution is modelled analytically: CPU seconds inflated by hash spills
//! (when the grant was reduced), which the CPU station turns into service
//! time under the machine's load, plus the disk station's I/O seconds over
//! the memory the brokered subcomponents have left free.

use super::Edge;
use crate::server::{Event, Server};
use throttledb_executor::spill_slowdown;
use throttledb_sim::{SimDuration, SlotRef};

impl Server {
    /// Begin executing `query` with `granted_bytes` of execution memory.
    pub(crate) fn start_exec(&mut self, query: SlotRef, granted_bytes: u64) {
        self.advance(query, Edge::Execute(granted_bytes));
        let q = self.queries.get(query).expect("query exists");
        let profile = q.profile;
        let spilled = profile.exec_cpu_seconds * spill_slowdown(granted_bytes, q.grant_requested);
        let cpu_seconds = self.machine.cpu.exec_seconds(spilled);
        // I/O time: whatever memory is not claimed by compilation, grants and
        // caches acts as the page buffer pool.
        let free_bytes = self.machine.memory.free_bytes();
        let io_seconds = self
            .machine
            .disk
            .io_seconds(profile.exec_footprint_bytes, free_bytes);

        let duration = SimDuration::from_secs_f64((cpu_seconds + io_seconds).max(1.0));
        self.queue
            .schedule(self.now + duration, Event::ExecFinish { query });
    }
}
