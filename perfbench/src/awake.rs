//! Keeps every CPU out of its idle state while `ide_daemon` is timed.
//!
//! Each request to `implicitd` hops across threads four times (load
//! thread → connection thread → tenant thread → connection thread →
//! load thread), and the two processes leave a CPU idle between hops.
//! On a virtual machine an idle CPU halts, and waking it costs an exit
//! to the hypervisor whose latency follows the host's load, not the
//! program: capacity and latency then drift with the neighbours. One
//! spinner per CPU at `SCHED_IDLE` priority runs only when nothing else
//! wants that CPU, and a thread woken there preempts it at once, so no
//! CPU halts; the effect is that of booting with `idle=poll`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Spinners that run until dropped.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts one idle-priority spinner per CPU. Returns `None`, with
    /// nothing left running, where a thread cannot take the idle
    /// policy: a spinner at normal priority would take CPU time from
    /// the program.
    pub fn start(cpus: usize) -> Option<KeepAwake> {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let threads = (0..cpus)
            .map(|_| {
                let (stop, tx) = (Arc::clone(&stop), tx.clone());
                std::thread::spawn(move || {
                    let idle = set_idle_policy();
                    let _ = tx.send(idle);
                    while idle && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        let awake = KeepAwake { stop, threads };
        let all_idle = (0..cpus).all(|_| rx.recv() == Ok(true));
        all_idle.then_some(awake)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Moves the calling thread to the `SCHED_IDLE` policy.
#[cfg(target_os = "linux")]
fn set_idle_policy() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a valid `struct sched_param` that outlives the
    // call; pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn set_idle_policy() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_stop_when_dropped() {
        if let Some(awake) = KeepAwake::start(2) {
            assert_eq!(awake.threads.len(), 2);
            drop(awake);
        }
    }
}
