"""twinmill: simulation and planning toolkit for milling with two
flange-coupled industrial robots.

The package exports no names: each is imported from the module that
defines it, as in `from twinmill.pathplan import plan_sync`.

Modules:
    geometry      rigid motions (`Pose`) and quaternion stacks
    kinematics    serial-arm FK / Jacobian / damped least-squares IK
    stiffness     per-arm and coupled Cartesian stiffness, tension offsets
    modal         tension-dependent oscillator model and impact-test FRFs
    pathplan      toolpaths, G-code subset, synchronized setpoint programs
    compensation  deformation simulation and rigid-transform compensation
    config        strict JSON system configuration
    cli           command-line frontend (modal / frf / plan / deform)
    errors        exception hierarchy shared by all modules
    csvtable      the `# key=value` CSV dialect of the interchange files
    jsondoc       the JSON schema reader of the config and the path file
"""
