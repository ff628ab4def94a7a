//! One module per table / figure of the thesis' evaluation.

pub mod ablation;
pub mod apps;
pub mod coll;
pub mod fault_uts;
pub mod fig_3_3;
pub mod fig_3_4;
pub mod fig_4_2;
pub mod fig_4_4;
pub mod fig_4_5;
pub mod fig_4_6;
pub mod hostkern;
pub mod serve;
pub mod simcore;
pub mod table_3_1;
pub mod trace;
pub mod table_3_2;
pub mod table_4_1;
