function mpc = demo_2bus
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
1	3	0	0	0	0	1	1	0	345	1	1.1	0.9
2	1	50	0	0	0	1	1	0	345	1	1.1	0.9
];
mpc.gen = [
1	0	0	999	-999	1	100	1	999	-999
];
mpc.branch = [
1	2	0	0.5	0	0	0	0	0	0	1	-360	360
];
